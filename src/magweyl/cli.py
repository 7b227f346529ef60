"""Command-line entry point: star-check, model-symbols, torus, all.

A single JSON config file drives every pipeline; flags override config
fields.  Reports land in one subdirectory per config hash containing
inputs.json and report.{json,csv,svg}.  Computed results (the star and
model-symbol checks, and the eigenvalues of each torus solve) are cached in
out_dir/cache/<key>.json, keyed by a hash of the magweyl sources, the
numpy and scipy versions and exactly the inputs each result reads; the
torus verdicts are always recomputed.  Exit codes: 0 pass, 1 tolerance
failure, 2 usage/config error (raised before any compute, so --dry-run
reports it too), 3 resource/convergence error, 4 internal error (any
other ValueError: a broken invariant, not a bad config).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import functools
import hashlib
import json
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import reports
from .errors import ResourceLimitError
from .forms import AntisymmetricForm
from .models import (ProjectorQuery, ResolventQuery,
                     SymbolNotInvertibleError, harmonic_hamiltonian,
                     projector_symbol, residue_projector, resolvent_at,
                     resolvent_symbol, sharp_inverse)
from .quantize import HermiteBasisSpec, _axis_map, block_compare, weyl_quantize
from .star import moyal_product, sharp_power, symmetrized_product
from .symbols import PolySymbol
from .torus import (EigenResult, PotentialSpec, SolverError, TorusModel,
                    build_magnetic_laplacian, solve)
from .verify import (CLUSTER_GAP, band_containment, band_gaps, check_cluster_law,
                     check_weyl_law, detect_clusters, sigma_bands)

EXIT_PASS = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

DEFAULT_CONFIG = {
    "seed": 0,
    "out_dir": "out",
    "star": {
        "instances": 200,
        "max_dim": 4,
        "max_degree": 4,
        "tolerance": 1e-10,
    },
    "models": {
        "hermite_levels": 40,
        "halfwidth": 12.0,
        "npoints": 512,
        "quad_nodes": 64,
        "resolvent_z": [-1.0, 0.0],
        "block_size": 10,
        "matrix_tolerance": 1e-4,
        "projector_tolerance": 1e-6,
        "residue_tolerance": 1e-6,
        "inverse_tolerance": 1e-4,
        "d2_levels": 12,
        "d2_halfwidth": 7.5,
        "d2_npoints": 48,
    },
    "torus": {
        "field": 1.0,
        "chern": 1,
        "cluster_pairs": [[4, 64], [8, 64], [16, 64], [4, 128], [8, 128], [16, 128]],
        "cluster_levels": [0, 1, 2],
        "center_tolerance": 0.02,
        "weyl_pairs": [[8, 64], [16, 128], [24, 192]],
        "weyl_lambda": 1.0,
        "weyl_tolerance": 0.1,
        "potential": {"cos_x": 0.1},
        "band_pairs": [[16, 64], [16, 128]],
        "band_cutoff": 3.0,
        "band_margin": 0.05,
        "gap_minimum": 0.6,
    },
    "caps": {
        "max_lattice_dim": 262144,
        "max_hermite_levels": 128,
    },
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    tolerance: float
    passed: bool
    note: str = ""

    def row(self) -> dict:
        return {"name": self.name, "value": self.value, "tolerance": self.tolerance,
                "passed": self.passed, "note": self.note}


def _leq(name, value, tol, note="") -> Check:
    return Check(name, float(value), float(tol), float(value) <= float(tol), note)


# fields replaced wholesale instead of deep-merged (their sub-schema is
# a union of shapes, e.g. null / {"cos_x": v} / {"modes": [...]})
_OPAQUE_FIELDS = {"torus.potential"}


def _merge(base: dict, override: dict, path="") -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config field {where!r}")
        if where in _OPAQUE_FIELDS:
            out[key] = copy.deepcopy(val)
        elif isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config field {where!r} must be an object")
            out[key] = _merge(base[key], val, where)
        else:
            out[key] = val
    return out


def _require(cfg: dict, fields: dict):
    """Convert each field ("section.name": int or float) as the stage that
    reads it does; a value that does not convert is a ConfigError."""
    for path, kind in fields.items():
        value = functools.reduce(dict.__getitem__, path.split("."), cfg)
        try:
            kind(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config field {path!r} must be "
                              f"{'an integer' if kind is int else 'a number'}, "
                              f"not {value!r}") from exc


def load_config(path: str | None) -> dict:
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        user = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    return _merge(DEFAULT_CONFIG, user)


def _sha256(obj) -> str:
    return hashlib.sha256(reports.canonical_json(obj).encode()).hexdigest()


def config_hash(cfg: dict) -> str:
    return _sha256({k: v for k, v in cfg.items() if k != "out_dir"})[:16]


@functools.cache
def _source_digest() -> str:
    """Hash of the magweyl sources and the numpy and scipy versions."""
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(Path(__file__).parent.glob("*.py"))}
    return _sha256({"files": files, "numpy": np.__version__, "scipy": scipy.__version__})


def _cached(cache_dir: Path, inputs, compute: Callable):
    """The JSON-decoded value of compute(), from the cache entry of `inputs`.

    An entry is cache_dir/<key>.json holding {"inputs", "value"}; the
    key hashes `inputs` with `_source_digest()`, so an entry written by
    other sources is never read.  A missing entry is a miss, an
    unreadable one a miss noted on stderr; a miss writes the entry to a
    temporary file and renames it into place, so a killed run never
    leaves a truncated entry.  Hit and miss both return the value read
    back from JSON, so they build identical results.
    """
    path = Path(cache_dir) / f"{_sha256({'source': _source_digest(), 'inputs': inputs})}.json"
    try:
        return json.loads(path.read_text())["value"]
    except FileNotFoundError:
        pass
    except (OSError, ValueError, KeyError) as exc:
        print(f"note: {path} is unreadable ({type(exc).__name__}); recomputing",
              file=sys.stderr)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    reports.write_json(tmp, {"inputs": inputs, "value": compute()})
    os.replace(tmp, path)
    return json.loads(path.read_text())["value"]


def _cached_checks(cache_dir: Path, inputs, compute: Callable) -> list[Check]:
    return [Check(**row) for row in _cached(cache_dir, inputs, compute)]


def _potential_from_config(spec) -> PotentialSpec | None:
    if spec is None:
        return None
    if "cos_x" in spec:
        return PotentialSpec.cosine_x(float(spec["cos_x"]))
    if "modes" in spec:
        return PotentialSpec(tuple(((int(p), int(q)), complex(re, im))
                                   for (p, q), (re, im) in spec["modes"]))
    raise ConfigError("potential must be null, {'cos_x': v} or {'modes': [...]}")


# ---------------------------------------------------------------------------
# star-check

def _random_poly(rng, dim, max_degree) -> PolySymbol:
    terms = {}
    for _ in range(rng.integers(2, 6)):
        idx = tuple(int(v) for v in rng.integers(0, max_degree + 1, size=dim))
        while sum(idx) > max_degree:
            idx = tuple(int(v) for v in rng.integers(0, max_degree + 1, size=dim))
        terms[idx] = complex(rng.standard_normal(), rng.standard_normal())
    return PolySymbol(dim, terms)


def _moduli(p: PolySymbol) -> PolySymbol:
    """The polynomial with the moduli of p's coefficients."""
    return PolySymbol.from_coeffs(p.dim, np.abs(p.coeffs))


def _random_antisymmetric(rng, dim) -> AntisymmetricForm:
    m = rng.standard_normal((dim, dim))
    return AntisymmetricForm(dim, m - m.T)


def run_star_checks(cfg: dict, seed: int) -> list[Check]:
    scfg = cfg["star"]
    rng = np.random.default_rng(seed)
    # the evaluation points of the zero-form check have their own stream,
    # so that they leave every other instance unchanged
    points = np.random.default_rng([seed, 1])
    tol = scfg["tolerance"]
    worst_assoc = 0.0
    worst_zero = 0.0
    worst_symm = 0.0
    worst_power = 0.0
    for _ in range(int(scfg["instances"])):
        dim = int(rng.integers(2, int(scfg["max_dim"]) + 1))
        A = _random_antisymmetric(rng, dim)
        f, g, h = (_random_poly(rng, dim, int(scfg["max_degree"])) for _ in range(3))
        scale = max(1.0, f.max_abs_coeff() * g.max_abs_coeff() * h.max_abs_coeff())
        lhs = moyal_product(moyal_product(f, g, A), h, A)
        rhs = moyal_product(f, moyal_product(g, h, A), A)
        worst_assoc = max(worst_assoc, lhs.distance(rhs) / scale)
        # A = 0 must be the plain pointwise product, compared by value at
        # random points, relative to the sum of the terms' moduli there: the
        # coefficients of both products come from one scatter, so comparing
        # them could not fail
        xi = points.standard_normal((4, dim))
        pointwise = moyal_product(f, g, AntisymmetricForm.zero(dim))(xi)
        envelope = _moduli(f)(np.abs(xi)).real * _moduli(g)(np.abs(xi)).real
        worst_zero = max(worst_zero, float(np.max(np.abs(pointwise - f(xi) * g(xi))
                                                  / np.maximum(1.0, envelope))))
        # symmetrization collapses to the plain monomial
        vs = [rng.standard_normal(dim) for _ in range(int(rng.integers(1, 4)))]
        sym = symmetrized_product(vs, A)
        mono = PolySymbol.constant(dim, 1.0)
        for v in vs:
            mono = mono * PolySymbol.from_covector(v)
        worst_symm = max(worst_symm, sym.distance(mono) / max(1.0, mono.max_abs_coeff()))
        # ordered sharp powers against explicit left multiplications
        alpha = tuple(int(v) for v in rng.integers(0, 3, size=dim))
        p = sharp_power(alpha, A)
        q = PolySymbol.constant(dim, 1.0)
        for axis in range(dim, 0, -1):
            for _ in range(alpha[axis - 1]):
                q = moyal_product(PolySymbol.coordinate(dim, axis), q, A)
        worst_power = max(worst_power, p.distance(q))
    return [
        _leq("star.associativity", worst_assoc, tol,
             f"{scfg['instances']} random triples"),
        _leq("star.pointwise_at_zero_form", worst_zero, 1e-12),
        _leq("star.symmetrization_identity", worst_symm, 1e-12),
        _leq("star.sharp_power_consistency", worst_power, 1e-12),
    ]


# ---------------------------------------------------------------------------
# model symbols

def _model_specs(cfg: dict) -> tuple[HermiteBasisSpec, HermiteBasisSpec,
                                      ResolventQuery, ResolventQuery]:
    """The d = 1 and d = 2 bases, and the anchor and oracle resolvent queries."""
    mcfg = cfg["models"]
    levels = int(mcfg["hermite_levels"])
    cap = int(cfg["caps"]["max_hermite_levels"])
    if levels > cap:
        raise ResourceLimitError(f"hermite levels {levels} over cap {cap}")
    try:
        z_oracle, z_anchor = (complex(z) for z in mcfg["resolvent_z"])
        spec = HermiteBasisSpec(d=1, levels=levels, halfwidth=float(mcfg["halfwidth"]),
                                npoints=int(mcfg["npoints"]))
        spec2 = HermiteBasisSpec(d=2, levels=int(mcfg["d2_levels"]),
                                 halfwidth=float(mcfg["d2_halfwidth"]),
                                 npoints=int(mcfg["d2_npoints"]))
        anchor = ResolventQuery(d=1, z=z_anchor, quad_nodes=int(mcfg["quad_nodes"]))
        oracle = ResolventQuery(d=1, z=z_oracle, quad_nodes=int(mcfg["quad_nodes"]))
        return spec, spec2, anchor, oracle
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"models: {exc}") from exc


def run_model_checks(cfg: dict) -> list[Check]:
    mcfg = cfg["models"]
    spec, spec2, q0, rq = _model_specs(cfg)
    grid = spec.grid()
    checks = []

    # pointwise anchor: R_{1,0}(0) = 2 arcsin(1) = pi, the closed form of
    # the s-integral over its full range [0, 2]
    anchor = abs(resolvent_at(q0, 0.0) - np.pi)
    checks.append(_leq("models.resolvent_origin_anchor", anchor, 1e-8,
                       "closed form 2*arcsin(1)"))

    # matrix oracle: quantize(R_{1,z}) vs diag(1/(m + 1/2 - z))
    z = rq.z
    rsym = resolvent_symbol(rq, grid)
    qr = weyl_quantize(rsym, spec)
    target = np.diag(1.0 / (np.arange(spec.levels) + 0.5 - z))
    comp = block_compare(qr, target, spec, margin=spec.levels - int(mcfg["block_size"]))
    checks.append(_leq("models.resolvent_matrix_oracle", comp.max_abs_error,
                       mcfg["matrix_tolerance"], f"block {comp.block_levels}, z={z}"))

    # projector checks (d = 1 on the main spec, d = 2 on its own spec)
    for (d, m) in ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1)):
        sp_d = spec if d == 1 else spec2
        pq = ProjectorQuery(d=d, energy=m + d / 2.0)
        # the symbol dies with the call: no d = 2 symbol outlives its quantization
        qp = weyl_quantize(projector_symbol(pq, sp_d.grid()), sp_d).entries
        idem = float(np.max(np.abs(qp @ qp - qp)))
        evals = np.linalg.eigvalsh(0.5 * (qp + qp.conj().T))
        rank = int(np.sum(np.abs(evals - 1.0) < 1e-4))
        checks.append(_leq(f"models.projector_idempotent_d{d}_m{m}", idem,
                           mcfg["projector_tolerance"]))
        checks.append(Check(f"models.projector_rank_d{d}_m{m}", rank, pq.rank,
                            rank == pq.rank, f"expected C(m+d-1,m) = {pq.rank}"))

    # residue identity at the first pole
    res = residue_projector(1, 0.5, 0.2, 64, grid)
    ref = projector_symbol(ProjectorQuery(1, 0.5), grid)
    checks.append(_leq("models.residue_identity", res.sup_distance(ref),
                       mcfg["residue_tolerance"], "contour r=0.2, 64 nodes"))
    empty = residue_projector(1, 0.0, 0.2, 64, grid)
    checks.append(_leq("models.residue_empty_contour",
                       float(np.max(np.abs(empty.values))), 1e-8))

    # sharp inverse vs the Mehler symbol
    H = harmonic_hamiltonian(1)
    inner = grid.radius2() <= (grid.halfwidth / 2.0) ** 2
    inv = sharp_inverse(H - z, spec)
    err = inv.sup_distance(rsym, mask=inner)
    checks.append(_leq("models.sharp_inverse_vs_mehler", err,
                       mcfg["inverse_tolerance"], f"|xi| <= R/2, z={z}"))
    try:
        sharp_inverse(H - 0.5, spec)
        checks.append(Check("models.sharp_inverse_pole_detected", 0.0, 1.0, False,
                            "H - 1/2 must be flagged singular"))
    except SymbolNotInvertibleError:
        checks.append(Check("models.sharp_inverse_pole_detected", 1.0, 1.0, True,
                            "H - 1/2 flagged singular"))
    # no later stage quantizes on a grid: free the cached axis maps and
    # the heap they pin before the torus stage builds on it
    _axis_map.cache_clear()
    return checks


# ---------------------------------------------------------------------------
# torus pipelines

@dataclass(frozen=True)
class TorusJob:
    """One lattice solve: every eigenvalue below the level `below`."""

    model: TorusModel
    potential: PotentialSpec | None
    k: int
    npoints: int
    purpose: str
    below: float

    @property
    def key(self) -> tuple:
        return (self.purpose, self.k, self.npoints)


def _solve_job(job: TorusJob, cache: Path) -> EigenResult:
    def compute():
        op = build_magnetic_laplacian(job.model, job.k, job.npoints, job.potential)
        return solve(op, job.below)
    return EigenResult(**_cached(cache, job, compute))


def _torus_jobs(cfg: dict) -> list[TorusJob]:
    """The solves of the torus stage; a (k, N) pair with k < 1 or one the
    lattice rejects is a ConfigError here, before anything is solved (at
    k = 0 every job's level is 0, an exact eigenvalue of Delta_0, so no
    inertia count can be taken there).

    A `clusters` job solves below (max cluster level + 1) b k, a `bands`
    job below band_cutoff * k: levels in the gaps above the last Landau
    cluster and the last band the verdicts read.  A `weyl` job solves
    below weyl_lambda * k^2, and its verdict reads only the count.
    """
    tcfg = cfg["torus"]
    try:
        cap = int(cfg["caps"]["max_lattice_dim"])
        model = TorusModel.compatible(int(tcfg["chern"]), float(tcfg["field"]))
        pot = _potential_from_config(tcfg["potential"])
        levels = [int(m) for m in tcfg["cluster_levels"]]
        if tcfg["cluster_pairs"] and not (levels and min(levels) >= 0):
            raise ValueError(f"cluster_levels {levels} must name one or more levels m >= 0")
        top = max(levels, default=0) + 1
        jobs = [TorusJob(model, None, int(k), int(npts), "clusters", top * model.field * int(k))
                for k, npts in tcfg["cluster_pairs"]]
        lam = float(tcfg["weyl_lambda"])
        jobs += [TorusJob(model, None, int(k), int(npts), "weyl", lam * int(k) ** 2)
                 for k, npts in tcfg["weyl_pairs"]]
        if pot is not None:
            cutoff = float(tcfg["band_cutoff"])
            jobs += [TorusJob(model, pot, int(k), int(npts), "bands", cutoff * int(k))
                     for k, npts in tcfg["band_pairs"]]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"torus: {exc}") from exc
    for job in jobs:
        if job.k < 1:
            raise ConfigError(f"torus {job.purpose} pair k={job.k}, N={job.npoints}: "
                              "k must be a positive tensor power")
        if job.npoints ** 2 > cap:
            raise ResourceLimitError(f"lattice dimension {job.npoints ** 2} exceeds cap {cap}")
        try:
            model.check_lattice(job.k, job.npoints)
        except ValueError as exc:
            raise ConfigError(f"torus {job.purpose} pair k={job.k}, N={job.npoints}: "
                              f"{exc}") from exc
    return jobs


def _run_jobs(jobs: list[TorusJob], n_workers: int, cache: Path) -> dict:
    solve_job = functools.partial(_solve_job, cache=cache)
    if n_workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(solve_job, jobs))
    else:
        results = [solve_job(job) for job in jobs]
    return {job.key: res for job, res in zip(jobs, results)}


def run_torus_checks(cfg: dict, spectra: dict) -> tuple[list[Check], dict]:
    tcfg = cfg["torus"]
    model = TorusModel.compatible(int(tcfg["chern"]), float(tcfg["field"]))
    pot = _potential_from_config(tcfg["potential"])
    checks = []
    extras = {"clusters": [], "weyl": [], "bands": []}

    if tcfg["cluster_pairs"]:
        cluster_spectra = {(int(k), int(npts)): spectra[("clusters", int(k), int(npts))]
                           for k, npts in tcfg["cluster_pairs"]}
        report = check_cluster_law(model, cluster_spectra,
                                   [int(m) for m in tcfg["cluster_levels"]])
        worst_drift = max(r.relative_drift for r in report.rows)
        count_ok = all(r.measured_count == r.predicted_count for r in report.rows)
        checks.append(_leq("torus.cluster_center_drift", worst_drift,
                           tcfg["center_tolerance"]))
        checks.append(Check("torus.cluster_counts_exact", float(count_ok), 1.0,
                            count_ok, "count == k*c for every (k, m)"))
        # refinement: drift shrinks when N doubles at fixed k
        by_k = {}
        for r in report.rows:
            by_k.setdefault((r.power, r.level), {})[r.npoints] = r.relative_drift
        improving = all(d[n] >= d[n2] - 1e-12
                        for d in by_k.values()
                        for n in d for n2 in d if n2 > n)
        checks.append(Check("torus.cluster_drift_improves_with_N", float(improving),
                            1.0, improving, "N-doubling reduces drift"))
        extras["clusters"] = [r.__dict__ for r in report.rows]

    if tcfg["weyl_pairs"]:
        counts = {(int(k), int(npts)): spectra[("weyl", int(k), int(npts))].raw.size
                  for k, npts in tcfg["weyl_pairs"]}
        records = check_weyl_law(counts, float(tcfg["weyl_lambda"]), model)
        mid = records[len(records) // 2]
        checks.append(_leq("torus.weyl_ratio_mid_k", abs(mid.ratio - 1.0),
                           tcfg["weyl_tolerance"], f"k={mid.power}"))
        devs = [abs(r.ratio - 1.0) for r in records]
        monotone = all(devs[i + 1] <= devs[i] + 1e-12 for i in range(len(devs) - 1))
        checks.append(Check("torus.weyl_ratio_converges", float(monotone), 1.0,
                            monotone, "deviation non-increasing in k"))
        extras["weyl"] = [r.__dict__ for r in records]

    if pot is not None and tcfg["band_pairs"]:
        gap_minimum = float(tcfg["gap_minimum"])
        bands = sigma_bands(model, pot, int(float(tcfg["band_cutoff"])) + 1)
        eps_by_n = {}
        for k, npts in tcfg["band_pairs"]:
            below = spectra[("bands", int(k), int(npts))].scaled()
            eps_by_n[(k, npts)] = band_containment(below, bands)
            cl = detect_clusters(below, CLUSTER_GAP * model.field)
            gaps = [cl.clusters[i + 1].lo - cl.clusters[i].hi
                    for i in range(len(cl.clusters) - 1)]
            extras["bands"].append({"k": k, "npoints": npts,
                                    "containment": eps_by_n[(k, npts)],
                                    "observed_gaps": gaps,
                                    "predicted_bands": bands,
                                    "predicted_gaps": band_gaps(bands)})
            if gaps:
                checks.append(Check(f"torus.gap_width_k{k}_N{npts}", min(gaps), gap_minimum,
                                    min(gaps) >= gap_minimum,
                                    "observed gap >= required minimum"))
        finest = max(eps_by_n, key=lambda t: t[1])
        checks.append(_leq("torus.band_containment", eps_by_n[finest],
                           tcfg["band_margin"], f"margin at N={finest[1]}"))
        shrinking = all(eps_by_n[a] >= eps_by_n[b] - 1e-12
                        for a in eps_by_n for b in eps_by_n
                        if a[0] == b[0] and b[1] > a[1])
        checks.append(Check("torus.band_margin_shrinks", float(shrinking), 1.0,
                            shrinking, "containment margin non-increasing under refinement"))
    return checks, extras


# ---------------------------------------------------------------------------
# commands

def _emit(cfg: dict, command: str, checks: list[Check], out_dir: Path,
          extras: dict | None):
    """report.{json,csv}, plus the details and report.svg when there are extras."""
    rows = [c.row() for c in checks]
    records = {
        "command": command,
        "config_hash": config_hash(cfg),
        "passed": all(c.passed for c in checks),
        "checks": rows,
    }
    if extras is not None:
        records["details"] = extras
    reports.emit_report(records, out_dir, rows=rows,
                        columns=["name", "value", "tolerance", "passed", "note"],
                        svg=_weyl_svg(extras) if extras is not None else None)


def _print_checks(checks: list[Check]):
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status}  {c.name}: value={c.value:.6g} tolerance={c.tolerance:.6g} {c.note}")


def _weyl_svg(extras: dict) -> str:
    series = []
    if extras["weyl"]:
        ks = [r["power"] for r in extras["weyl"]]
        ratios = [r["ratio"] for r in extras["weyl"]]
        series = [{"label": "measured / predicted", "x": ks, "y": ratios,
                   "kind": "line"}]
    return reports.svg_plot(series, "eigenvalue counting ratio", "k",
                            "N_k / (k/2pi)^2 vol", reference_y=1.0)


@dataclass(frozen=True)
class Stage:
    """A CLI stage: its plan lines, and its checks with report details.

    `plan(cfg, torus_jobs)` builds the stage's inputs from the config, so
    a bad value raises ConfigError before any stage computes, dry run or
    not.  `run(cfg, torus_jobs, n_workers, cache)` returns (checks,
    details or None).
    """

    plan: Callable[[dict, list[TorusJob]], list[str]]
    run: Callable[[dict, list[TorusJob], int, Path], tuple[list[Check], dict | None]]


def _star_plan(cfg: dict, _jobs) -> list[str]:
    scfg = cfg["star"]
    _require(cfg, {"seed": int, "star.instances": int, "star.max_dim": int,
                   "star.max_degree": int, "star.tolerance": float})
    if int(scfg["max_dim"]) < 2 or int(scfg["max_degree"]) < 0:
        raise ConfigError("star: max_dim must be an integer >= 2 and max_degree one >= 0")
    return [f"{scfg['instances']} random star-product property instances"]


def _model_plan(cfg: dict, _jobs) -> list[str]:
    _require(cfg, {"caps.max_hermite_levels": int, "models.hermite_levels": int,
                   "models.block_size": int, "models.matrix_tolerance": float,
                   "models.projector_tolerance": float, "models.residue_tolerance": float,
                   "models.inverse_tolerance": float})
    spec = _model_specs(cfg)[0]
    return [f"resolvent/projector/residue/inverse checks at N={spec.levels}"]


def _torus_plan(cfg: dict, jobs: list[TorusJob]) -> list[str]:
    _require(cfg, {"torus.center_tolerance": float, "torus.weyl_tolerance": float,
                   "torus.band_margin": float, "torus.gap_minimum": float})
    return [f"solve {j.purpose} eigenvalues below {j.below:.6g} at k={j.k}, N={j.npoints}"
            for j in jobs]


STAGES = {
    "star-check": Stage(
        plan=_star_plan,
        run=lambda cfg, _jobs, _workers, cache: (_cached_checks(
            cache, ["star-check", int(cfg["seed"]), cfg["star"]],
            lambda: run_star_checks(cfg, int(cfg["seed"]))), None)),
    "model-symbols": Stage(
        plan=_model_plan,
        run=lambda cfg, _jobs, _workers, cache: (_cached_checks(
            cache, ["model-symbols", cfg["models"], cfg["caps"]],
            lambda: run_model_checks(cfg)), None)),
    "torus": Stage(
        plan=_torus_plan,
        run=lambda cfg, jobs, n_workers, cache: run_torus_checks(
            cfg, _run_jobs(jobs, n_workers, cache))),
}
COMMANDS = {**{name: (name,) for name in STAGES}, "all": tuple(STAGES)}


def run_command(cfg: dict, command: str, n_workers: int, dry_run: bool) -> int:
    """Run (or with dry_run only plan) the stages of `command` into one report."""
    stages = COMMANDS[command]
    out = Path(cfg["out_dir"]) / config_hash(cfg)
    cache = Path(cfg["out_dir"]) / "cache"
    jobs = _torus_jobs(cfg) if "torus" in stages else []
    plans = {name: STAGES[name].plan(cfg, jobs) for name in stages}
    if dry_run:
        for name in stages:
            for line in plans[name]:
                print(f"plan: {name}: {line}")
        print(f"plan: reports -> {out}")
        return EXIT_PASS
    checks, extras = [], None
    for name in stages:
        stage_checks, details = STAGES[name].run(cfg, jobs, n_workers, cache)
        checks += stage_checks
        if details is not None:
            extras = details
    out.mkdir(parents=True, exist_ok=True)
    reports.write_json(out / "inputs.json", cfg)
    _emit(cfg, command, checks, out, extras)
    _print_checks(checks)
    n_fail = sum(not c.passed for c in checks)
    print(f"summary: {len(checks) - n_fail}/{len(checks)} checks passed")
    return EXIT_PASS if n_fail == 0 else EXIT_TOLERANCE


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="magweyl",
                                description="star-product calculus, model symbols, "
                                            "and magnetic torus spectra")
    p.add_argument("--config", metavar="PATH", help="JSON config file")
    p.add_argument("--out", metavar="DIR", help="output directory root")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes for (k, N) solves")
    p.add_argument("--dry-run", action="store_true", help="print the plan, no compute")
    p.add_argument("--seed", type=int, metavar="S", help="override config seed")
    p.add_argument("command", choices=list(COMMANDS))
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_PASS
    try:
        cfg = load_config(args.config)
        if args.out is not None:
            cfg["out_dir"] = args.out
        if args.seed is not None:
            cfg["seed"] = args.seed
        return run_command(cfg, args.command, max(1, args.jobs), args.dry_run)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, ResourceLimitError, MemoryError) as exc:
        print(f"resource/convergence error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
