import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import magweyl.torus
from magweyl import AntisymmetricForm, PolySymbol, cli, moyal_product, star, symbols
from magweyl.cli import (EXIT_CONFIG, EXIT_INTERNAL, EXIT_PASS, EXIT_RESOURCE,
                         EXIT_TOLERANCE, config_hash, load_config, main)
from magweyl.torus import RESIDUAL_TOL, EigenResult, PotentialSpec, TorusModel, solve

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
            if isinstance(val, dict):
                cfg.setdefault(key, {}).update(val)
            else:   # a top-level field such as the seed
                cfg[key] = val
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


def _reference_poly(rng, dim, max_degree) -> PolySymbol:
    """The star-check factor draw with one PolySymbol per factor, kept as the
    reference stream."""
    terms = {}
    for _ in range(rng.integers(2, 6)):
        idx = tuple(int(v) for v in rng.integers(0, max_degree + 1, size=dim))
        while sum(idx) > max_degree:
            idx = tuple(int(v) for v in rng.integers(0, max_degree + 1, size=dim))
        terms[idx] = complex(rng.standard_normal(), rng.standard_normal())
    return PolySymbol(dim, terms)


def _reference_star_instances(scfg, seed) -> list:
    """(dim, form, (f, g, h), points, covectors, alpha) per instance, drawn one
    instance at a time in the star-check's order."""
    rng = np.random.default_rng(seed)
    points = np.random.default_rng([seed, 1])
    out = []
    for _ in range(scfg["instances"]):
        dim = int(rng.integers(2, scfg["max_dim"] + 1))
        m = rng.standard_normal((dim, dim))
        form = AntisymmetricForm(dim, m - m.T)
        factors = tuple(_reference_poly(rng, dim, scfg["max_degree"]) for _ in range(3))
        xi = points.standard_normal((4, dim))
        vs = [rng.standard_normal(dim) for _ in range(int(rng.integers(1, 4)))]
        alpha = tuple(int(v) for v in rng.integers(0, 3, size=dim))
        out.append((dim, form, factors, xi, vs, alpha))
    return out


@pytest.mark.parametrize("seed, star_cfg", [
    (0, {}), (21, {}), (3, {"instances": 1}), (5, {"max_degree": 0}), (7, {"max_dim": 2}),
], ids=["seed0", "seed21", "one-instance", "degree0", "dim2"])
def test_star_instances_are_the_reference_draws(seed, star_cfg):
    # the stacked draw keeps the stream: every exponent, coefficient, form,
    # point, covector and multi-index of each instance is bit-identical to
    # the per-instance draw, in draw order within its dimension group
    scfg = {**cli.DEFAULT_CONFIG["star"], **star_cfg}
    reference = _reference_star_instances(scfg, seed)
    groups = cli._draw_star_instances(scfg, seed)
    assert [g.dim for g in groups] == sorted({r[0] for r in reference})
    for group in groups:
        mine = [r for r in reference if r[0] == group.dim]
        degree = group.degree()
        assert degree == max(p.degree for r in mine for p in r[2])
        for i in range(3):
            rows = group.coefficients(i, degree)
            assert rows.shape == (len(mine), math.comb(degree + group.dim, group.dim))
            for row, r in zip(rows, mine):
                assert np.array_equal(row[:r[2][i].coeffs.size], r[2][i].coeffs)
                assert not row[r[2][i].coeffs.size:].any()
        for k, (_, form, _, xi, vs, alpha) in enumerate(mine):
            assert np.array_equal(group.forms[k], form.entries)
            assert np.array_equal(group.points[k], xi)
            assert len(group.covectors[k]) == len(vs)
            assert all(np.array_equal(a, b) for a, b in zip(group.covectors[k], vs))
            assert tuple(group.alphas[k].tolist()) == alpha
    cfg = {"star": scfg}
    assert all(c.passed for c in cli.run_star_checks(cfg, seed))


def test_star_checks_memory():
    # the stacks run in chunks of a byte budget: the star stage stays a few
    # MiB, counted from cold scatter and derivative caches
    cfg = load_config(None)
    symbols._pair_index.cache_clear()
    symbols._derivative_table.cache_clear()
    tracemalloc.start()
    try:
        cli.run_star_checks(cfg, int(cfg["seed"]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


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


def cache_entries(out_root: Path) -> dict:
    """{file name: bytes} of every result-cache entry under out_root."""
    return {p.name: p.read_bytes() for p in sorted((out_root / "cache").iterdir())}


def _verdict(stdout: str, name: str) -> str:
    """The verdict line of the check `name`."""
    [line] = [line for line in stdout.splitlines() if f"  {name}: " in line]
    return line


def _refuse(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} ran on a cache hit")
    return fail


def _count_solves(monkeypatch) -> list:
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)
    monkeypatch.setattr(cli, "solve", counted)
    return calls


def test_torus_cache_and_determinism(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "torus"]) == EXIT_PASS
    cold = report_bytes(out, cfg)
    entries = cache_entries(out)
    stamps = {p.name: p.stat().st_mtime_ns for p in (out / "cache").iterdir()}
    # cold run in a fresh directory gives the same reports and entries
    out2 = tmp_path / "out2"
    assert main(["--config", cfg, "--out", str(out2), "torus"]) == EXIT_PASS
    assert report_bytes(out2, cfg) == cold
    assert cache_entries(out2) == entries
    assert set(cold) == {"report.csv", "report.json", "report.svg"}
    # warm rerun: every entry hits, nothing is solved or rewritten
    monkeypatch.setattr(cli, "solve", _refuse("solve"))
    assert main(["--config", cfg, "--out", str(out), "torus"]) == EXIT_PASS
    assert {p.name: p.stat().st_mtime_ns for p in (out / "cache").iterdir()} == stamps
    assert report_bytes(out, cfg) == cold
    assert capsys.readouterr().err == ""


def _one_job_config(tmp_path):
    return write_config(tmp_path, {"torus": {"cluster_pairs": [[2, 16]], "weyl_pairs": [],
                                             "band_pairs": []}})


def test_stale_spectra_cache_is_recomputed(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    cfg = _one_job_config(tmp_path)
    assert main(["--config", cfg, "--out", str(out), "torus"]) == EXIT_PASS
    cold = report_bytes(out, cfg)
    [stale] = (out / "cache").iterdir()
    payload = json.loads(stale.read_text())
    payload["value"]["raw"] = [v + 1.0 for v in payload["value"]["raw"]]  # what older code returned
    stale.write_text(json.dumps(payload))
    # other sources: the key changes, so the stale entry is never read
    monkeypatch.setattr(cli, "_source_digest", lambda: "other sources")
    calls = _count_solves(monkeypatch)
    assert main(["--config", cfg, "--out", str(out), "torus"]) == EXIT_PASS
    assert len(calls) == 1
    assert report_bytes(out, cfg) == cold
    assert len(cache_entries(out)) == 2
    assert capsys.readouterr().err == ""  # a missing entry is a silent miss


def test_spectra_cache_schema(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    cfg = write_config(tmp_path)
    assert main(["--config", cfg, "--out", str(out), "all"]) == EXIT_PASS
    cfgdict = load_config(cfg)
    entries = {name: json.loads(text) for name, text in cache_entries(out).items()}
    # one entry per torus operator plus the star and model-symbol stages:
    # the V = 0 operator at (2, 16) serves the cluster and the Weyl verdicts
    assert len(entries) == 5 + 2
    assert all(len(name) == 64 + len(".json") for name in entries)
    assert all(set(payload) == {"inputs", "value"} for payload in entries.values())
    stages = {p["inputs"][0]: p for p in entries.values() if isinstance(p["inputs"], list)}
    assert stages["star-check"]["inputs"] == ["star-check", 1, cfgdict["star"]]
    assert stages["model-symbols"]["inputs"] == ["model-symbols", cfgdict["models"],
                                                 cfgdict["caps"]]
    for payload in stages.values():
        assert all(set(row) == {"name", "value", "tolerance", "passed", "note"}
                   for row in payload["value"])
    solves = [p for p in entries.values() if isinstance(p["inputs"], dict)]
    assert all(set(p["inputs"]) == {"model", "potential", "k", "npoints", "below"}
               for p in solves)
    spectra = {(p["inputs"]["potential"] is None, p["inputs"]["k"], p["inputs"]["npoints"]):
               (p["inputs"]["below"], p["value"]) for p in solves}
    # below 3 b k (clusters m = 0, 1, 2, and bands m = 0, 1, 2 at band_cutoff 3)
    # or weyl_lambda k^2 (k^2 c eigenvalues, the clusters m < k/2), whichever
    # is higher for an operator two verdicts read
    assert {key: below for key, (below, _) in spectra.items()} == {
        (True, 2, 16): 6.0, (True, 2, 32): 6.0, (True, 3, 24): 9.0,
        (False, 4, 32): 12.0, (False, 4, 48): 12.0}
    for (_, k, npts), (below, rec) in spectra.items():
        assert set(rec) == {"power", "raw", "residual_norms", "method"}
        assert rec["power"] == k
        assert rec["method"] == "sectors"  # no potential, or cos_x: x-only
        # below / (b k) clusters of k c eigenvalues each, with b = c = 1
        assert len(rec["raw"]) == below
        assert rec["raw"] == sorted(rec["raw"])
        # one residual on its ring per eigenvalue, and up to 8 on the sites
        assert len(rec["residual_norms"]) == below + min(8, below)
        assert max(rec["residual_norms"]) <= RESIDUAL_TOL
    # the reports sit apart from the cache; a leftover spectra.json of the
    # old per-config layout is ignored
    sub = out / config_hash(dict(cfgdict, out_dir=str(out)))
    assert {p.name for p in sub.iterdir()} == {"inputs.json", "report.csv", "report.json",
                                                "report.svg"}
    (sub / "spectra.json").write_text("{}")
    monkeypatch.setattr(cli, "solve", _refuse("solve"))
    capsys.readouterr()
    assert main(["--config", cfg, "--out", str(out), "all"]) == EXIT_PASS
    assert capsys.readouterr().err == ""


def test_truncated_spectra_cache_is_rewritten(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    cfg = _one_job_config(tmp_path)
    assert main(["--config", cfg, "--out", str(out), "torus"]) == EXIT_PASS
    cold = report_bytes(out, cfg)
    [entry] = (out / "cache").iterdir()
    text = entry.read_text()
    # a truncated entry, and one that parses but whose value builds no EigenResult
    broken = json.loads(text)
    broken["value"] = {"raw": [1.0]}
    calls = _count_solves(monkeypatch)
    for corrupt in (text[: len(text) // 2], json.dumps(broken)):
        entry.write_text(corrupt)
        calls.clear()
        assert main(["--config", cfg, "--out", str(out), "torus"]) == EXIT_PASS
        assert "unreadable" in capsys.readouterr().err
        assert len(calls) == 1
        assert json.loads(entry.read_text()) == json.loads(text)
        assert report_bytes(out, cfg) == cold
        assert [p.name for p in entry.parent.iterdir() if p.name.endswith(".tmp")] == []


def test_check_rows_that_build_no_check_are_recomputed(tmp_path, capsys, monkeypatch):
    # a star-check entry that parses, but one of whose rows lacks a field
    out = tmp_path / "out"
    cfg = write_config(tmp_path)
    assert main(["--config", cfg, "--out", str(out), "star-check"]) == EXIT_PASS
    cold = report_bytes(out, cfg)
    [entry] = (out / "cache").iterdir()
    text = entry.read_text()
    broken = json.loads(text)
    del broken["value"][0]["passed"]
    entry.write_text(json.dumps(broken))
    calls = []
    run_star_checks = cli.run_star_checks
    monkeypatch.setattr(cli, "run_star_checks",
                        lambda *args: calls.append(args) or run_star_checks(*args))
    assert main(["--config", cfg, "--out", str(out), "star-check"]) == EXIT_PASS
    assert "unreadable (TypeError); recomputing" in capsys.readouterr().err
    assert len(calls) == 1
    assert json.loads(entry.read_text()) == json.loads(text)
    assert report_bytes(out, cfg) == cold


def test_verdict_only_change_runs_no_solves(tmp_path, capsys, monkeypatch):
    # without the Weyl pair (3, 24) every operator left is one already
    # solved, below the same level; the verdicts are recomputed, and the
    # middle Weyl pair is now k = 2
    out = tmp_path / "out"
    cfg = write_config(tmp_path)
    assert main(["--config", cfg, "--out", str(out), "torus"]) == EXIT_PASS
    assert _verdict(capsys.readouterr().out, "torus.weyl_ratio_mid_k").endswith(" k=3")
    entries = cache_entries(out)
    fewer = write_config(tmp_path, {"torus": {"weyl_pairs": [[2, 16]]}})
    monkeypatch.setattr(cli, "solve", _refuse("solve"))
    assert main(["--config", fewer, "--out", str(out), "torus"]) == EXIT_PASS
    assert _verdict(capsys.readouterr().out, "torus.weyl_ratio_mid_k").endswith(" k=2")
    assert cache_entries(out) == entries


def test_seed_change_runs_no_solves(tmp_path, capsys, monkeypatch):
    # the seed drives the star-check instances only; spectra do not depend on it
    out = tmp_path / "out"
    cfg = write_config(tmp_path)
    assert main(["--config", cfg, "--out", str(out), "--seed", "1", "torus"]) == EXIT_PASS
    entries = cache_entries(out)
    monkeypatch.setattr(cli, "solve", _refuse("solve"))
    assert main(["--config", cfg, "--out", str(out), "--seed", "2", "torus"]) == EXIT_PASS
    assert cache_entries(out) == entries


def test_warm_all_skips_star_and_model_stages(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    cfg = write_config(tmp_path)
    assert main(["--config", cfg, "--out", str(out), "all"]) == EXIT_PASS
    cold = report_bytes(out, cfg)
    for name in ("run_star_checks", "run_model_checks", "solve"):
        monkeypatch.setattr(cli, name, _refuse(name))
    assert main(["--config", cfg, "--out", str(out), "all"]) == EXIT_PASS
    assert report_bytes(out, cfg) == cold


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
    # the workers write the same cache entries as a serial run
    assert cache_entries(out2) == cache_entries(out1)


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


def test_grid_cap_is_a_resource_error(tmp_path, capsys):
    # the d >= 2 grid cap is a resource limit, not a config error
    cfg = write_config(tmp_path, {"models": {"d2_npoints": 96}})
    code = main(["--config", cfg, "--out", str(tmp_path / "out"), "model-symbols"])
    assert code == 3
    assert "capped at 64 points" in capsys.readouterr().err


@pytest.mark.parametrize("models, cap", [({"npoints": 2049}, 2048), ({"npoints": 100000}, 2048),
                                         ({"d2_npoints": 96}, 64)])
def test_grid_caps_are_resource_errors_in_dry_run(tmp_path, capsys, models, cap):
    # the plan builds the bases, so a grid over its cap exits 3 before any compute
    cfg = write_config(tmp_path, {"models": models})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--dry-run", "all"]) == EXIT_RESOURCE
    assert f"capped at {cap} points" in capsys.readouterr().err
    assert not out.exists()


def test_config_round_trip(tmp_path):
    cfg = load_config(write_config(tmp_path))
    text = json.dumps(cfg, sort_keys=True)
    assert json.loads(text) == cfg
    assert config_hash(cfg) == config_hash(json.loads(text))
    # out_dir does not affect the hash
    cfg2 = dict(cfg, out_dir="elsewhere")
    assert config_hash(cfg2) == config_hash(cfg)


@pytest.mark.parametrize("override, message", [
    ({"torus": {"cluster_pairs": [[16, 16]]}}, "torus clusters pair k=16, N=16: lattice too coarse"),
    ({"torus": {"cluster_pairs": [[3, 7]]}}, "torus clusters pair k=3, N=7: lattice too coarse"),
    ({"torus": {"potential": {"modes": [[[1, 0], [0.1, 0]]]}}}, "torus: mode (1,0) breaks realness"),
    ({"torus": {"potential": {"modes": 5}}}, "torus: "),
    ({"models": {"resolvent_z": [-1.0, 0.5]}}, "models: z = (0.5+0j) within"),
    ({"models": {"halfwidth": 2.0}}, "models: halfwidth 2.0 too small"),
    ({"star": {"max_dim": 1}}, "star: max_dim must be"),
    ({"torus": {"cluster_levels": []}}, "torus: cluster_levels [] must name"),
    ({"torus": {"cluster_levels": [-1]}}, "torus: cluster_levels [-1] must name"),
    ({"torus": {"weyl_pairs": [[0, 8]]}}, "torus weyl pair k=0, N=8: k must be a positive"),
    # every field is typed as its default at load, before any stage plans
    ({"seed": "abc"}, "config field 'seed' must be an integer, not 'abc'"),
    ({"star": {"instances": "abc"}}, "config field 'star.instances' must be an integer"),
    ({"star": {"max_degree": "abc"}}, "config field 'star.max_degree' must be an integer"),
    ({"models": {"block_size": "abc"}}, "config field 'models.block_size' must be an integer"),
    ({"models": {"d2_halfwidth": None}}, "config field 'models.d2_halfwidth' must be"),
    ({"torus": {"weyl_lambda": "abc"}}, "config field 'torus.weyl_lambda' must be"),
    ({"torus": {"band_cutoff": [3.0]}}, "config field 'torus.band_cutoff' must be a number"),
    ({"caps": {"max_hermite_levels": "abc"}}, "config field 'caps.max_hermite_levels' must be"),
    ({"caps": {"max_lattice_dim": "abc"}}, "config field 'caps.max_lattice_dim' must be"),
    ({"torus": {"field": 0}}, "torus: field 0.0 must be positive"),
    ({"torus": {"weyl_pairs": [[4, 32, 1]]}}, "torus weyl pair [4, 32, 1] must be [k, N]"),
    # a non-integral number is not truncated
    ({"torus": {"band_pairs": [[16.5, 128]]}},
     "config field 'torus.band_pairs' must be an integer, not 16.5"),
    ({"out_dir": 5}, "config field 'out_dir' must be a string, not 5"),
    # tolerances are fixed beside their checks, not config fields
    ({"torus": {"gap_minimum": 0.0}}, "unknown config field 'torus.gap_minimum'"),
    # values that would divide by zero, or leave a verdict no data to read
    ({"torus": {"weyl_lambda": 0}}, "torus: weyl_lambda 0.0 must be positive"),
    ({"torus": {"weyl_lambda": -1}}, "torus: weyl_lambda -1.0 must be positive"),
    ({"star": {"instances": 0}}, "star: instances 0 must be an integer >= 1"),
    ({"torus": {"band_cutoff": -1.0}}, "torus: band_cutoff -1.0 must lie above 0.4, the bottom"),
    # the star draws need a non-negative seed; the oracle's block lies in the basis
    ({"seed": -1}, "star: seed -1 must be an integer >= 0"),
    ({"models": {"block_size": 0}}, "models: block_size 0 must lie in 1..16"),
    ({"models": {"block_size": 17}}, "models: block_size 17 must lie in 1..16"),
    # a negative side squares past the coarseness bound
    ({"torus": {"cluster_pairs": [[1, -8]]}},
     "torus clusters pair k=1, N=-8: lattice side N = -8 must be at least 1"),
    # NaN fails no comparison, so a non-finite value is refused by name
    ({"models": {"halfwidth": float("nan")}}, "models: invalid basis spec"),
    ({"models": {"halfwidth": float("inf")}}, "models: invalid basis spec"),
    ({"models": {"d2_halfwidth": float("nan")}}, "models: invalid basis spec"),
    ({"models": {"d2_halfwidth": float("inf")}}, "models: invalid basis spec"),
    ({"torus": {"potential": {"cos_x": float("nan")}}},
     "torus: mode (1,0) amplitude (nan+0j) is not finite"),
    ({"torus": {"potential": {"modes": [[[0, 1], [float("nan"), 0]], [[0, -1], [1.0, 0]]]}}},
     "torus: mode (0,1) amplitude (nan+0j) is not finite"),
    # NaN fails the comparison with the lowest band; no top band lies above
    # an infinite cutoff
    ({"torus": {"band_cutoff": float("nan")}}, "torus: band_cutoff nan must lie above 0.4"),
    ({"torus": {"band_cutoff": float("inf")}}, "torus: band_cutoff inf must lie above 0.4"),
])
def test_bad_config_value_is_config_error_in_dry_run(tmp_path, capsys, override, message):
    cfg = write_config(tmp_path, override)
    out = tmp_path / "out"
    for dry_run in (["--dry-run"], []):
        assert main(["--config", cfg, "--out", str(out), *dry_run, "all"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("dry_run", [["--dry-run"], []], ids=["dry-run", "run"])
def test_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs, dry_run):
    out = tmp_path / "out"
    assert main(["--out", str(out), "--jobs", jobs, *dry_run, "torus"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: --jobs {jobs} must be an integer >= 1\n"
    assert not out.exists()


def _config_leaves(section: dict, path=""):
    """The dotted path of every field of a config section, potential as one."""
    for key, val in section.items():
        where = f"{path}.{key}" if path else key
        if isinstance(val, dict) and where != "torus.potential":
            yield from _config_leaves(val, where)
        else:
            yield where


@pytest.mark.parametrize("path", [
    path for path in _config_leaves(cli.DEFAULT_CONFIG)
    if path not in {"out_dir", "torus.potential", "models.resolvent_z"}])
def test_every_config_field_is_typed_at_load(tmp_path, capsys, path):
    *sections, name = path.split(".")
    override = {name: "abc"}
    for section in reversed(sections):
        override = {section: override}
    cfg = write_config(tmp_path, override)
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), "--dry-run",
                 "all"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: config field {path!r} must be")


def test_a_bad_field_of_another_stage_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"torus": {"band_cutoff": "abc"}})
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), "star-check"]) == EXIT_CONFIG
    assert "config field 'torus.band_cutoff' must be a number" in capsys.readouterr().err


def test_integral_numbers_are_integers(tmp_path, capsys):
    from_int, from_float = (load_config(write_config(tmp_path, {"torus": {
        "cluster_pairs": [], "weyl_pairs": [], "band_pairs": [[k, 32]]}})) for k in (4, 4.0))
    assert type(from_float["torus"]["band_pairs"][0][0]) is int
    assert config_hash(from_float) == config_hash(from_int)
    cfg = write_config(tmp_path, {"torus": {"cluster_pairs": [], "weyl_pairs": [],
                                            "band_pairs": [[4.0, 32]]}})
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), "torus"]) == EXIT_PASS
    assert "PASS  torus.gap_width_k4_N32:" in capsys.readouterr().out


def test_default_plan_solves_each_operator_once(tmp_path, capsys):
    # the V = 0 operators at (8, 64) and (16, 128) serve the cluster and the
    # Weyl verdicts: 6 + 3 + 2 pairs, 9 operators
    assert main(["--out", str(tmp_path / "out"), "--dry-run", "all"]) == EXIT_PASS
    solves = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("plan: torus: solve")]
    assert len(solves) == 9
    assert "plan: torus: solve V = 0 eigenvalues below 256 at k=16, N=128" in solves


# the torus override of the symbols-sparse benchmark workload: V = 0 at
# k = 4, 8 and N = 64, 128, and a y-dependent potential at (16, 64), (16, 128)
SPARSE_TORUS = {"cluster_pairs": [[4, 64], [8, 64], [4, 128], [8, 128]], "weyl_pairs": [],
                "potential": {"modes": [[[1, 0], [0.025, 0]], [[-1, 0], [0.025, 0]],
                                        [[0, 1], [0.025, 0]], [[0, -1], [0.025, 0]]]},
                "band_pairs": [[16, 64], [16, 128]]}


def test_torus_jobs_run_largest_first(tmp_path, capsys, monkeypatch):
    # the largest factorization, V at (16, 128), starts on the smallest
    # resident set; the spectra map and the plan keep the config's order
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({"torus": SPARSE_TORUS}))
    jobs = cli._torus_jobs(load_config(str(path)), TorusModel.compatible(1, 1.0),
                           cli._potential_from_config(SPARSE_TORUS["potential"]))
    solved = []

    def recording(op, below):
        solved.append((op.potential is not None, op.power, op.npoints))
        return EigenResult(op.power, [below], "recorded")
    monkeypatch.setattr(cli, "solve", recording)
    spectra = cli._run_jobs(jobs, 1, tmp_path / "a")
    assert solved == [(True, 16, 128), (False, 4, 128), (False, 8, 128),
                      (True, 16, 64), (False, 4, 64), (False, 8, 64)]
    in_config_order = {job.key: cli._solve_job(job, tmp_path / "b") for job in jobs}
    assert list(spectra) == list(in_config_order)
    assert all(spectra[key].raw.tolist() == res.raw.tolist() == [job.below]
               for job, (key, res) in zip(jobs, in_config_order.items()))
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--dry-run",
                 "torus"]) == EXIT_PASS
    assert [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("plan: torus")] == [
        "plan: torus: solve V = 0 eigenvalues below 12 at k=4, N=64",
        "plan: torus: solve V = 0 eigenvalues below 24 at k=8, N=64",
        "plan: torus: solve V = 0 eigenvalues below 12 at k=4, N=128",
        "plan: torus: solve V = 0 eigenvalues below 24 at k=8, N=128",
        "plan: torus: solve V eigenvalues below 48 at k=16, N=64",
        "plan: torus: solve V eigenvalues below 48 at k=16, N=128"]


class _SerialPool:
    """A stand-in for ProcessPoolExecutor that records its size and maps in
    this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def test_jobs_start_no_more_workers_than_solves(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    cfg = write_config(tmp_path)
    assert main(["--config", cfg, "--out", str(tmp_path / "a"), "--jobs", "64",
                 "torus"]) == EXIT_PASS
    assert _SerialPool.sizes == [5]  # SMALL's five operators
    # one solve runs in this process: no pool at all
    assert main(["--config", _one_job_config(tmp_path), "--out", str(tmp_path / "b"),
                 "--jobs", "64", "torus"]) == EXIT_PASS
    assert _SerialPool.sizes == [5]


def test_internal_value_error_exits_4(tmp_path, capsys, monkeypatch):
    def broken(cfg, seed):
        raise ValueError("broken invariant")
    monkeypatch.setattr(cli, "run_star_checks", broken)
    cfg = write_config(tmp_path)
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), "star-check"]) == EXIT_INTERNAL
    assert capsys.readouterr().err == "internal error: broken invariant\n"


def test_first_order_star_product_fails_associativity(tmp_path, capsys, monkeypatch):
    # keep the Moyal series only through first order: the product is then
    # not associative on the degree <= 4 triples, so the verdict must fail
    full = star._moyal_weights

    def first_order(a, order):
        return [w if r < 2 else np.zeros_like(w) for r, w in enumerate(full(a, order))]
    monkeypatch.setattr(star, "_moyal_weights", first_order)
    cfg = load_config(write_config(tmp_path))
    checks = {c.name: c for c in cli.run_star_checks(cfg, int(cfg["seed"]))}
    assert not checks["star.associativity"].passed
    assert checks["star.associativity"].value > 1e-3
    code = main(["--config", write_config(tmp_path), "--out", str(tmp_path / "out"),
                 "star-check"])
    assert code == EXIT_TOLERANCE
    assert "FAIL  star.associativity" in capsys.readouterr().out


_Y_DEPENDENT = {"modes": [[[1, 0], [0.025, 0]], [[-1, 0], [0.025, 0]],
                          [[0, 1], [0.025, 0]], [[0, -1], [0.025, 0]]]}


def test_band_cutoff_above_the_third_band_sees_every_band(tmp_path, capsys):
    # bands m = 0..5 lie below the cutoff 6: five gaps per pair, which a
    # solve of a fixed count such as 3 k c + 8 eigenvalues would cut to three
    cfg = write_config(tmp_path, {"torus": {"band_pairs": [[8, 32], [8, 64]],
                                            "potential": _Y_DEPENDENT, "band_cutoff": 6.0}})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "torus"]) == EXIT_PASS
    report = json.loads(report_bytes(out, cfg)["report.json"])
    assert [len(b["observed_gaps"]) for b in report["details"]["bands"]] == [5, 5]


def test_torus_stage_takes_the_potential_range_once(tmp_path, capsys, monkeypatch):
    # the cutoff check and the band verdicts read one (min V, max V): a
    # y-dependent potential builds its 512 x 512 mesh once per stage
    calls = []
    oscillation = PotentialSpec.oscillation

    def counted(self, side):
        calls.append(side)
        return oscillation(self, side)
    monkeypatch.setattr(PotentialSpec, "oscillation", counted)
    cfg = write_config(tmp_path, {"torus": {"cluster_pairs": [], "weyl_pairs": [],
                                            "band_pairs": [[8, 32], [8, 64]],
                                            "potential": _Y_DEPENDENT}})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--dry-run", "torus"]) == EXIT_PASS
    assert len(calls) == 1
    assert main(["--config", cfg, "--out", str(out), "torus"]) == EXIT_PASS
    assert len(calls) == 2


def test_empty_band_spectrum_fails_both_band_verdicts(tmp_path, capsys):
    # cos_x 0.1 puts the lowest scaled eigenvalue at (16,64) at 0.4077, above
    # the cutoff 0.405: both band spectra are empty, so nothing was checked
    cfg = write_config(tmp_path, {"torus": {"band_cutoff": 0.405, "cluster_pairs": [],
                                            "weyl_pairs": [],
                                            "band_pairs": [[16, 64], [16, 128]]}})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "torus"]) == EXIT_TOLERANCE
    stdout = capsys.readouterr().out
    assert _verdict(stdout, "torus.band_containment").startswith(
        "FAIL  torus.band_containment: value=inf")
    assert _verdict(stdout, "torus.band_margin_shrinks").startswith("FAIL")
    details = json.loads(report_bytes(out, cfg)["report.json"])["details"]["bands"]
    assert [b["containment"] for b in details] == [math.inf, math.inf]


def test_single_pair_configs_report_no_trend_verdict(tmp_path, capsys):
    # one (k, N) pair per verdict compares nothing: the drift, Weyl and
    # band-margin trends report no row, and the other verdicts still do
    cfg = write_config(tmp_path, {"torus": {"cluster_pairs": [[2, 16]], "weyl_pairs": [[2, 16]],
                                            "band_pairs": [[16, 64]],
                                            "potential": {"cos_x": 0.3}}})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "torus"]) == EXIT_PASS
    rows = json.loads(report_bytes(out, cfg)["report.json"])["checks"]
    assert [row["name"] for row in rows] == [
        "torus.cluster_center_drift", "torus.cluster_counts_exact", "torus.weyl_ratio_mid_k",
        "torus.gap_width_k16_N64", "torus.band_containment"]
    assert capsys.readouterr().out.endswith("summary: 5/5 checks passed\n")


def test_trend_verdicts_compare_every_pair(tmp_path, capsys):
    # the Weyl deviation is read over every pair of k, not only neighbours,
    # and the band margin by k: (4, 32) and (8, 32) share no k
    cfg = write_config(tmp_path, {"torus": {"cluster_pairs": [], "weyl_pairs": [],
                                            "band_pairs": [[4, 32], [8, 32]]}})
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), "torus"]) == EXIT_PASS
    assert "band_margin_shrinks" not in capsys.readouterr().out
    # each step grows by less than the 1e-12 slack, the whole run by more
    checks = cli._never_grows("t", {1.0: {(2, 16): 0.3, (3, 24): 0.3 + 0.8e-12,
                                          (4, 32): 0.3 + 1.6e-12}}, "")
    assert [c.passed for c in checks] == [False]
    assert cli._never_grows("t", {2: {16: 0.1}, 3: {16: 0.2}}, "") == []
    assert not cli._never_grows("t", {2: {16: math.inf, 32: math.inf}}, "")[0].passed


def test_potential_that_closes_a_predicted_gap_fails_the_gap_verdict(tmp_path, capsys,
                                                                    monkeypatch):
    # cos_x 0.1 predicts the gaps (0.6, 1.4) and (1.6, 2.4) below band_cutoff 3;
    # the operator is built with cos_x 0.6 instead, whose bands overlap, so
    # the spectrum below 3 shows no gap wider than CLUSTER_GAP b at all, and
    # the spacing across a predicted gap is a small part of its width
    build = cli.build_magnetic_laplacian

    def stronger(model, k, npoints, potential=None):
        if potential is not None:
            potential = PotentialSpec(tuple((pq, 6.0 * amp) for pq, amp in potential.modes))
        return build(model, k, npoints, potential)
    monkeypatch.setattr(cli, "build_magnetic_laplacian", stronger)
    cfg = write_config(tmp_path, {"torus": {"cluster_pairs": [], "weyl_pairs": [],
                                            "band_pairs": [[16, 64]]}})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "torus"]) == EXIT_TOLERANCE
    assert _verdict(capsys.readouterr().out, "torus.gap_width_k16_N64").startswith(
        "FAIL  torus.gap_width_k16_N64: value=0.0641647 tolerance=0.75")
    [bands] = json.loads(report_bytes(out, cfg)["report.json"])["details"]["bands"]
    assert bands["observed_gaps"] == []
    assert np.allclose(bands["predicted_gaps"][:2], [[0.6, 1.4], [1.6, 2.4]])


@pytest.mark.parametrize("amplitude, pair", [(0.3, [16, 64]), (0.45, [8, 32])])
def test_gap_verdict_reads_each_predicted_gap_at_its_midpoint(tmp_path, capsys, amplitude, pair):
    # cos_x 0.3 predicts gaps 0.4 wide, narrower than the spectrum's 0.5 and
    # 0.6; at (8, 32) cos_x 0.45 has an in-band spacing wider than
    # CLUSTER_GAP b, which is no predicted gap.  Both spectra are correct.
    k, npoints = pair
    cfg = write_config(tmp_path, {"torus": {"cluster_pairs": [], "weyl_pairs": [],
                                            "potential": {"cos_x": amplitude},
                                            "band_pairs": [pair]}})
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), "torus"]) == EXIT_PASS
    assert _verdict(capsys.readouterr().out, f"torus.gap_width_k{k}_N{npoints}").startswith(
        f"PASS  torus.gap_width_k{k}_N{npoints}:")


def test_overlapping_predicted_bands_report_no_gap_verdict(tmp_path, capsys):
    # cos_x 0.6 spans 1.2 > b: the predicted bands merge into one, so no gap
    # is predicted and none is checked, though the spectrum has spacings
    # wider than CLUSTER_GAP b
    cfg = write_config(tmp_path, {"torus": {"cluster_pairs": [], "weyl_pairs": [],
                                            "potential": {"cos_x": 0.6}}})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "torus"]) == EXIT_PASS
    assert "gap_width" not in capsys.readouterr().out
    details = json.loads(report_bytes(out, cfg)["report.json"])["details"]["bands"]
    assert [len(b["observed_gaps"]) for b in details] == [4, 4]
    assert all(b["predicted_gaps"] == [] for b in details)


def test_inertia_count_over_a_quarter_is_a_resource_error(tmp_path, capsys):
    # below 6 b k at k = 3, N = 8: 18 eigenvalues, over dim/4 = 16
    cfg = write_config(tmp_path, {"torus": {"cluster_pairs": [[3, 8]],
                                            "cluster_levels": [0, 1, 2, 3, 4, 5]}})
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), "torus"]) == EXIT_RESOURCE
    assert "exceed dim/4 = 16" in capsys.readouterr().err


@pytest.mark.parametrize("pairs", [
    {"band_pairs": [[4, 32]]},   # 12 eigenvalues below band_cutoff k = 12
    {"weyl_pairs": [[4, 32]]},   # 16 eigenvalues below weyl_lambda k^2 = 16
], ids=["bands", "weyl"])
def test_dropped_sector_in_a_level_job_exits_3(tmp_path, capsys, monkeypatch, pairs):
    # k = 4, N = 32: four sector rings; without one the rings' rows no
    # longer partition the momentum rows
    rings = magweyl.torus._sector_rings
    monkeypatch.setattr(magweyl.torus, "_sector_rings", lambda op: list(rings(op))[1:])
    cfg = write_config(tmp_path, {"torus": {"cluster_pairs": [], "weyl_pairs": [],
                                            "band_pairs": [], **pairs}})
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), "torus"]) == EXIT_RESOURCE
    assert ("the rings' rows do not partition the 1024 momentum rows: 768 are held once"
            in capsys.readouterr().err)


def test_dropped_ring_block_exits_3(tmp_path, capsys, monkeypatch):
    # k = 4, N = 32 with a y-dependent potential: the Rayleigh-Ritz basis
    # would miss one of the four rings; the partition of the momentum rows
    # fails first
    rings = magweyl.torus._sector_rings
    monkeypatch.setattr(magweyl.torus, "_sector_rings", lambda op: list(rings(op))[1:])
    cfg = write_config(tmp_path, {"torus": {"cluster_pairs": [], "weyl_pairs": [],
                                            "potential": _Y_DEPENDENT,
                                            "band_pairs": [[4, 32]]}})
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), "torus"]) == EXIT_RESOURCE
    assert ("the rings' rows do not partition the 1024 momentum rows: 768 are held once"
            in capsys.readouterr().err)


def test_corrupt_product_scatter_fails_the_zero_form_check(tmp_path, monkeypatch):
    # send every coefficient pair of a product to the monomial of the next
    # pair: the Moyal product at A = 0 and the pointwise product share the
    # corruption, so their coefficients still agree and only their values
    # at points can tell
    pair_index = symbols._pair_index
    monkeypatch.setattr(symbols, "_pair_index",
                        lambda dim, p, q: np.roll(pair_index(dim, p, q), 2))
    f = PolySymbol(2, {(1, 0): 1.0, (0, 2): 2.0j})
    g = PolySymbol(2, {(0, 0): 3.0, (2, 1): -1.0})
    assert moyal_product(f, g, AntisymmetricForm.zero(2)).distance(f * g) == 0.0
    cfg = load_config(write_config(tmp_path))
    checks = {c.name: c for c in cli.run_star_checks(cfg, int(cfg["seed"]))}
    assert not checks["star.pointwise_at_zero_form"].passed
    assert checks["star.pointwise_at_zero_form"].value > 1e-3
