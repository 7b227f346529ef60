"""Command-line entry point: star-check, model-symbols, torus, all.

A single JSON config file drives every pipeline; flags override config
fields, and each field takes the type of its default at load.  Reports
land in one subdirectory per config hash containing inputs.json and
report.{json,csv,svg}.  Computed results (the star and model-symbol
checks, and the eigenvalues of each torus operator, solved once) are
cached in out_dir/cache/<key>.json, keyed by a hash of the magweyl
sources, the numpy and scipy versions and exactly the inputs each result
reads; the torus verdicts are always recomputed.  Exit codes: 0 pass, 1
tolerance failure, 2 usage/config error (raised before any compute, so
--dry-run reports it too), 3 resource/convergence error, 4 internal error
(any other ValueError: a broken invariant, not a bad config).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import functools
import hashlib
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import reports
from .errors import ResourceLimitError
from .models import (ProjectorQuery, ResolventQuery,
                     SymbolNotInvertibleError, harmonic_hamiltonian,
                     projector_symbol, residue_projector, resolvent_at,
                     resolvent_symbol, sharp_inverse)
from .quantize import (HermiteBasisSpec, _axis_map, _row_chunks, block_compare,
                       weyl_quantize)
from .star import (AntisymmetricForm, _chunks, _ordered_power, moyal_product, sharp_power,
                   symmetrized_product)
from .symbols import (GridSymbol, PolySymbol, _derivative_table, _pair_index,
                      monomial_rank, monomial_values)
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
    },
    "models": {
        "hermite_levels": 40,
        "halfwidth": 12.0,
        "npoints": 512,
        "resolvent_z": [-1.0, 0.0],
        "block_size": 10,
        "d2_levels": 12,
        "d2_halfwidth": 7.5,
        "d2_npoints": 48,
    },
    "torus": {
        "field": 1.0,
        "chern": 1,
        "cluster_pairs": [[4, 64], [8, 64], [16, 64], [4, 128], [8, 128], [16, 128]],
        "cluster_levels": [0, 1, 2],
        "weyl_pairs": [[8, 64], [16, 128], [24, 192]],
        "weyl_lambda": 1.0,
        "potential": {"cos_x": 0.1},
        "band_pairs": [[16, 64], [16, 128]],
        "band_cutoff": 3.0,
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
    return Check(name, float(value), tol, float(value) <= tol, note)


def _geq(name, value, tol, note="") -> Check:
    return Check(name, float(value), tol, float(value) >= tol, note)


# fields taken as given instead of typed or deep-merged (their schema is
# a union of shapes, e.g. null / {"cos_x": v} / {"modes": [...]}, or
# complex numbers as [re, im] or strings)
_OPAQUE_FIELDS = {"torus.potential", "models.resolvent_z"}


def _typed(where: str, default, val):
    """`val` converted to the type of `default`: a string, an int (a float
    only when integral), a float, or a list of the type of the default's
    first item."""
    if isinstance(default, list) and isinstance(val, list):
        return [_typed(where, default[0], v) for v in val]
    if isinstance(default, str) and isinstance(val, str):
        return val
    if (isinstance(default, (int, float)) and isinstance(val, (int, float))
            and not isinstance(val, bool)):
        if isinstance(default, float):
            return float(val)
        if isinstance(val, int) or val.is_integer():
            return int(val)
    kind = {list: "a list", str: "a string", int: "an integer", float: "a number"}
    raise ConfigError(f"config field {where!r} must be {kind[type(default)]}, not {val!r}")


def _merge(base: dict, override: dict, path="") -> dict:
    """`override` deep-merged over `base`, each leaf typed as its default."""
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
            out[key] = _typed(where, base[key], val)
    return out


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


def _cached(cache_dir: Path, inputs, compute: Callable, build: Callable):
    """build(value), value the JSON-decoded compute(), from the cache entry
    of `inputs`.

    An entry is cache_dir/<key>.json holding {"inputs", "value",
    "digest"}; the key hashes `inputs` with `_source_digest()`, so an
    entry written by other sources is never read, and the digest hashes
    the value, so an entry whose value was changed after it was written
    is never trusted.  A missing entry is a miss; an unreadable one, one
    whose value does not build, or one whose value does not match its
    digest, a miss noted on stderr.  A miss writes the entry to a temporary
    file and renames it into place, so a killed run never leaves a
    truncated entry.  Hit and miss both build from the value read back
    from JSON, so they build identical results.
    """
    path = Path(cache_dir) / f"{_sha256({'source': _source_digest(), 'inputs': inputs})}.json"
    try:
        entry = json.loads(path.read_text())
        result = build(entry["value"])
        if _sha256(entry["value"]) == entry["digest"]:
            return result
        print(f"note: {path} does not match its digest; recomputing", file=sys.stderr)
    except FileNotFoundError:
        pass
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"note: {path} is unreadable ({type(exc).__name__}); recomputing",
              file=sys.stderr)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    value = json.loads(reports.canonical_json(compute()))
    reports.write_json(tmp, {"inputs": inputs, "value": value, "digest": _sha256(value)})
    os.replace(tmp, path)
    return build(json.loads(path.read_text())["value"])


def _cached_checks(cache_dir: Path, inputs, compute: Callable) -> list[Check]:
    return _cached(cache_dir, inputs, compute, lambda rows: [Check(**row) for row in rows])


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

@dataclass
class _StarGroup:
    """The star-check instances of one dimension, in draw order: the forms,
    the three factors as {exponent: coefficient} maps (a repeated exponent
    keeps its last coefficient), the zero-form check's points, the
    symmetrization covectors and the sharp-power multi-indices."""

    dim: int
    forms: list = field(default_factory=list)
    factors: tuple = field(default_factory=lambda: ([], [], []))
    points: list = field(default_factory=list)
    covectors: list = field(default_factory=list)
    alphas: list = field(default_factory=list)

    def degree(self) -> int:
        return max(sum(e) for terms in self.factors for t in terms for e in t)

    def coefficients(self, which: int, degree: int) -> np.ndarray:
        """One factor of every instance as coefficient rows over the basis of `degree`."""
        terms = self.factors[which]
        out = np.zeros((len(terms), math.comb(degree + self.dim, self.dim)), dtype=complex)
        rows = np.repeat(np.arange(len(terms)), [len(t) for t in terms])
        out[rows, monomial_rank([e for t in terms for e in t])] = [
            c for t in terms for c in t.values()]
        return out


def _draw_star_instances(scfg: dict, seed: int) -> list[_StarGroup]:
    """The seeded star-check instances, grouped by dimension."""
    rng = np.random.default_rng(seed)
    # the evaluation points of the zero-form check have their own stream,
    # so that they leave every other instance unchanged
    points = np.random.default_rng([seed, 1])
    top = scfg["max_degree"]
    groups = {}
    for _ in range(scfg["instances"]):
        dim = int(rng.integers(2, scfg["max_dim"] + 1))
        group = groups.setdefault(dim, _StarGroup(dim))
        m = rng.standard_normal((dim, dim))
        group.forms.append(m - m.T)
        for factor in group.factors:
            terms = {}
            for _ in range(rng.integers(2, 6)):
                idx = tuple(rng.integers(0, top + 1, size=dim).tolist())
                while sum(idx) > top:
                    idx = tuple(rng.integers(0, top + 1, size=dim).tolist())
                terms[idx] = complex(rng.standard_normal(), rng.standard_normal())
            factor.append(terms)
        group.points.append(points.standard_normal((4, dim)))
        group.covectors.append([rng.standard_normal(dim) for _ in range(int(rng.integers(1, 4)))])
        group.alphas.append(rng.integers(0, 3, size=dim))
    return sorted(groups.values(), key=lambda g: g.dim)


def _moduli(p: PolySymbol) -> PolySymbol:
    """The polynomial with the moduli of p's coefficients."""
    return PolySymbol.from_coeffs(p.dim, np.abs(p.coeffs))


def _values(p: PolySymbol, monomials: np.ndarray) -> np.ndarray:
    """Each polynomial of the stack p at its own points, from the values there
    of the monomials of a basis at least as large as p's (`monomial_values`;
    the basis of a degree is a prefix of every larger one)."""
    return np.einsum("kpm,km->kp", monomials[..., :p.coeffs.shape[-1]], p.coeffs)


def _associativity_and_zero_form(group: _StarGroup) -> tuple[float, float]:
    """The worst associativity defect, relative to the coefficient scale, and
    the worst zero-form defect of a dimension group, a chunk of stacked
    triples at a time."""
    dim, degree = group.dim, group.degree()
    stacks = [group.coefficients(i, degree) for i in range(3)]
    forms, points = np.array(group.forms), np.array(group.points)
    worst_assoc = worst_zero = 0.0
    for part in _chunks(len(forms), dim, 2 * degree, degree):
        A = AntisymmetricForm(dim, forms[part])
        f, g, h = (PolySymbol.from_coeffs(dim, c[part]) for c in stacks)
        scale = np.maximum(1.0, f.max_abs_coeff() * g.max_abs_coeff() * h.max_abs_coeff())
        lhs = moyal_product(moyal_product(f, g, A), h, A)
        rhs = moyal_product(f, moyal_product(g, h, A), A)
        worst_assoc = max(worst_assoc, float(np.max(lhs.distance(rhs) / scale)))
        # A = 0 must be the plain pointwise product, compared by value at
        # random points, relative to the sum of the terms' moduli there: the
        # coefficients of both products come from one scatter, so comparing
        # them could not fail
        pointwise = moyal_product(f, g, AntisymmetricForm.zero(dim))
        mono = monomial_values(dim, max(pointwise.degree, f.degree, g.degree), points[part])
        defect = np.abs(_values(pointwise, mono) - _values(f, mono) * _values(g, mono))
        envelope = (_values(_moduli(f), np.abs(mono)).real
                    * _values(_moduli(g), np.abs(mono)).real)
        worst_zero = max(worst_zero, float(np.max(defect / np.maximum(1.0, envelope))))
    return worst_assoc, worst_zero


def _symmetrization(group: _StarGroup) -> float:
    """The worst distance of a symmetrized product from the plain monomial,
    relative to the monomial's scale, over the stacks of instances with
    one number of covectors."""
    dim, forms = group.dim, np.array(group.forms)
    worst = 0.0
    for factors in sorted({len(vs) for vs in group.covectors}):
        rows = [k for k, vs in enumerate(group.covectors) if len(vs) == factors]
        covectors = np.array([group.covectors[k] for k in rows]).transpose(1, 0, 2)
        for part in _chunks(len(rows), dim, 1, factors):
            vs = list(covectors[:, part])
            sym = symmetrized_product(vs, AntisymmetricForm(dim, forms[rows][part]))
            mono = PolySymbol.constant(dim, 1.0)
            for v in vs:
                mono = mono * PolySymbol.from_covector(v)
            worst = max(worst, float(np.max(sym.distance(mono)
                                            / np.maximum(1.0, mono.max_abs_coeff()))))
    return worst


def _sharp_power_consistency(group: _StarGroup) -> float:
    """The worst distance of the ordered sharp powers from explicit left
    Moyal multiplications by the coordinates."""
    dim, forms, alphas = group.dim, np.array(group.forms), np.array(group.alphas)
    worst = 0.0
    for part in _chunks(len(alphas), dim, 1, int(alphas.sum(axis=1).max())):
        A = AntisymmetricForm(dim, forms[part])
        p = sharp_power(alphas[part], A)
        q = _ordered_power(alphas[part], dim, lambda axis, q: moyal_product(
            PolySymbol.coordinate(dim, axis), q, A))
        worst = max(worst, float(np.max(p.distance(q))))
    return worst


def run_star_checks(cfg: dict, seed: int) -> list[Check]:
    scfg = cfg["star"]
    worst_assoc = worst_zero = worst_symm = worst_power = 0.0
    for group in _draw_star_instances(scfg, seed):
        assoc, zero = _associativity_and_zero_form(group)
        worst_assoc, worst_zero = max(worst_assoc, assoc), max(worst_zero, zero)
        worst_symm = max(worst_symm, _symmetrization(group))
        worst_power = max(worst_power, _sharp_power_consistency(group))
    # the scatter and derivative tables of the stacks (about 2 MB) serve no
    # later stage: free them before the model stage
    _pair_index.cache_clear()
    _derivative_table.cache_clear()
    return [
        _leq("star.associativity", worst_assoc, 1e-10,
             f"{scfg['instances']} random triples"),
        _leq("star.pointwise_at_zero_form", worst_zero, 1e-12),
        _leq("star.symmetrization_identity", worst_symm, 1e-12),
        _leq("star.sharp_power_consistency", worst_power, 1e-12),
    ]


# ---------------------------------------------------------------------------
# model symbols

def _model_specs(cfg: dict) -> tuple[HermiteBasisSpec, HermiteBasisSpec,
                                      ResolventQuery, ResolventQuery, int]:
    """The d = 1 and d = 2 bases, the anchor and oracle resolvent queries, and the block size."""
    mcfg = cfg["models"]
    levels = mcfg["hermite_levels"]
    cap = cfg["caps"]["max_hermite_levels"]
    if levels > cap:
        raise ResourceLimitError(f"hermite levels {levels} over cap {cap}")
    try:
        z_oracle, z_anchor = (complex(z) for z in mcfg["resolvent_z"])
        spec = HermiteBasisSpec(d=1, levels=levels, halfwidth=mcfg["halfwidth"],
                                npoints=mcfg["npoints"])
        spec2 = HermiteBasisSpec(d=2, levels=mcfg["d2_levels"],
                                 halfwidth=mcfg["d2_halfwidth"], npoints=mcfg["d2_npoints"])
        q0, rq = ResolventQuery(d=1, z=z_anchor), ResolventQuery(d=1, z=z_oracle)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"models: {exc}") from exc
    block = mcfg["block_size"]
    if not 1 <= block <= levels:
        raise ConfigError(f"models: block_size {block} must lie in 1..{levels}")
    return spec, spec2, q0, rq, block


def run_model_checks(spec: HermiteBasisSpec, spec2: HermiteBasisSpec, q0: ResolventQuery,
                     rq: ResolventQuery, block: int) -> list[Check]:
    """The model-symbol checks on the bases and queries of `_model_specs`."""
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
    comp = block_compare(qr, target, spec, margin=spec.levels - block)
    checks.append(_leq("models.resolvent_matrix_oracle", comp.max_abs_error, 1e-4,
                       f"block {comp.block_levels}, z={z}"))
    # each check's matrices and symbols die before the next check builds
    # its own, so the stage peaks at its largest check, not at their sum
    del qr, target, comp

    # projector checks (d = 1 on the main spec, d = 2 on its own spec)
    for (d, m) in ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1)):
        sp_d = spec if d == 1 else spec2
        pq = ProjectorQuery(d=d, energy=m + d / 2.0)
        # the symbol dies with the call: no d = 2 symbol outlives its quantization
        qp = weyl_quantize(projector_symbol(pq, sp_d.grid()), sp_d).entries
        idem = float(np.max(np.abs(qp @ qp - qp)))
        evals = np.linalg.eigvalsh(0.5 * (qp + qp.conj().T))
        rank = int(np.sum(np.abs(evals - 1.0) < 1e-4))
        checks.append(_leq(f"models.projector_idempotent_d{d}_m{m}", idem, 1e-6))
        checks.append(Check(f"models.projector_rank_d{d}_m{m}", rank, pq.rank,
                            rank == pq.rank, f"expected C(m+d-1,m) = {pq.rank}"))
    del qp, evals

    # residue identity at the first pole
    res = residue_projector(1, 0.5, 0.2, 64, grid)
    ref = projector_symbol(ProjectorQuery(1, 0.5), grid)
    checks.append(_leq("models.residue_identity", res.sup_distance(ref), 1e-6,
                       "contour r=0.2, 64 nodes"))
    empty = residue_projector(1, 0.0, 0.2, 64, grid)
    zero = GridSymbol.from_radial(grid, np.zeros_like)
    checks.append(_leq("models.residue_empty_contour", empty.sup_distance(zero), 1e-8))
    del res, ref, empty, zero

    # sharp inverse vs the Mehler symbol
    H = harmonic_hamiltonian(1)
    inv = sharp_inverse(H - z, spec)
    err = inv.sup_distance(rsym, radius=grid.halfwidth / 2.0)
    checks.append(_leq("models.sharp_inverse_vs_mehler", err, 1e-4, f"|xi| <= R/2, z={z}"))
    try:
        sharp_inverse(H - 0.5, spec)
        checks.append(Check("models.sharp_inverse_pole_detected", 0.0, 1.0, False,
                            "H - 1/2 must be flagged singular"))
    except SymbolNotInvertibleError:
        checks.append(Check("models.sharp_inverse_pole_detected", 1.0, 1.0, True,
                            "H - 1/2 flagged singular"))
    # no later stage quantizes on a grid: free the cached axis maps and
    # chunk plans, and the heap they pin, before the torus stage builds on it
    _axis_map.cache_clear()
    _row_chunks.cache_clear()
    return checks


# ---------------------------------------------------------------------------
# torus pipelines

@dataclass(frozen=True)
class TorusJob:
    """One lattice operator's solve: every eigenvalue below the level `below`."""

    model: TorusModel
    potential: PotentialSpec | None
    k: int
    npoints: int
    below: float

    @property
    def key(self) -> tuple:
        return (self.potential, self.k, self.npoints)


def _solve_job(job: TorusJob, cache: Path) -> EigenResult:
    def compute():
        op = build_magnetic_laplacian(job.model, job.k, job.npoints, job.potential)
        return solve(op, job.below)
    return _cached(cache, job, compute, lambda value: EigenResult(**value))


def _torus_jobs(cfg: dict, model: TorusModel, pot: PotentialSpec | None) -> list[TorusJob]:
    """The solves of the torus stage: one per operator (potential or none,
    k, N), below the highest level a verdict reads of it.  A (k, N) pair
    with k < 1 or one the lattice rejects is a ConfigError here, before
    anything is solved (at k = 0 every level is 0, an exact eigenvalue of
    Delta_0, so no count can be certified there).

    The verdicts read V = 0 below (max cluster level + 1) b k and V below
    band_cutoff * k, gap levels above the last cluster and band they read,
    and count V = 0 below weyl_lambda * k^2, a gap level too, so any solve
    at or above it gives the exact count.
    """
    tcfg = cfg["torus"]
    levels = tcfg["cluster_levels"]
    if tcfg["cluster_pairs"] and not (levels and min(levels) >= 0):
        raise ConfigError(f"torus: cluster_levels {levels} must name one or more levels m >= 0")
    if tcfg["weyl_pairs"] and not tcfg["weyl_lambda"] > 0:
        raise ConfigError(f"torus: weyl_lambda {tcfg['weyl_lambda']} must be positive")
    top = max(levels, default=0) + 1
    reads = [("clusters", None, tcfg["cluster_pairs"], lambda k: top * model.field * k),
             ("weyl", None, tcfg["weyl_pairs"], lambda k: tcfg["weyl_lambda"] * k ** 2)]
    if pot is not None:
        reads.append(("bands", pot, tcfg["band_pairs"], lambda k: tcfg["band_cutoff"] * k))
    cap = cfg["caps"]["max_lattice_dim"]
    jobs = {}
    for verdict, potential, pairs, level in reads:
        for pair in pairs:
            if len(pair) != 2:
                raise ConfigError(f"torus {verdict} pair {pair} must be [k, N]")
            k, npoints = pair
            if k < 1:
                raise ConfigError(f"torus {verdict} pair k={k}, N={npoints}: "
                                  "k must be a positive tensor power")
            if npoints ** 2 > cap:
                raise ResourceLimitError(f"lattice dimension {npoints ** 2} exceeds cap {cap}")
            try:
                model.check_lattice(k, npoints)
            except ValueError as exc:
                raise ConfigError(f"torus {verdict} pair k={k}, N={npoints}: {exc}") from exc
            old = jobs.get((potential, k, npoints))
            below = level(k) if old is None else max(old.below, level(k))
            jobs[(potential, k, npoints)] = TorusJob(model, potential, k, npoints, below)
    return list(jobs.values())


def _run_jobs(jobs: list[TorusJob], n_workers: int, cache: Path) -> dict:
    """{job.key: its EigenResult} in the order of `jobs`, over at most one
    worker process per job.

    The jobs run largest first: by decreasing N, and at equal N an operator
    with a potential (its Rayleigh-Ritz solve holds the ring blocks and
    the projected matrix) before V = 0.  So the largest solve starts
    on the smallest resident set, and the later, smaller jobs reuse the
    heap it frees.
    """
    solve_job = functools.partial(_solve_job, cache=cache)
    order = sorted(jobs, key=lambda job: (-job.npoints, job.potential is None))
    n_workers = min(n_workers, len(jobs))
    if n_workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(solve_job, order))
    else:
        results = [solve_job(job) for job in order]
    by_key = {job.key: res for job, res in zip(order, results)}
    return {job.key: by_key[job.key] for job in jobs}


def _never_grows(name: str, groups: dict, note: str) -> list[Check]:
    """The verdict that every value of {group: {x: value}} is finite and none
    exceeds one at a smaller x of its group by over 1e-12; none when no
    group holds two points to compare."""
    pairs = [(d[a], d[b]) for d in groups.values() for a in d for b in d if a < b]
    if not pairs:
        return []
    ok = (all(math.isfinite(v) for d in groups.values() for v in d.values())
          and all(before >= after - 1e-12 for before, after in pairs))
    return [Check(name, float(ok), 1.0, ok, note)]


def _predicted_bands(cfg: dict, model: TorusModel, pot: PotentialSpec | None) -> list | None:
    """The bands m = 0, ..., floor(band_cutoff) + 1 that the band verdicts
    read, from one oscillation of the potential; None when no verdict
    reads them.  A cutoff at or below the lowest band leaves the band
    verdicts no eigenvalue, and an infinite one no top band: each is a
    ConfigError."""
    tcfg = cfg["torus"]
    if pot is None or not tcfg["band_pairs"]:
        return None
    cutoff = tcfg["band_cutoff"]
    bands = sigma_bands(model, pot, max(0, math.floor(cutoff) + 1)
                        if math.isfinite(cutoff) else 0)
    if not bands[0][0] < cutoff < math.inf:
        raise ConfigError(f"torus: band_cutoff {cutoff} must lie above {bands[0][0]:.6g}, "
                          "the bottom b/2 + min V of the lowest band, and be finite")
    return bands


def run_torus_checks(cfg: dict, model: TorusModel, pot: PotentialSpec | None,
                     bands: list | None, spectra: dict) -> tuple[list[Check], dict]:
    """The torus verdicts from `spectra`, which maps each operator
    (potential or None, k, N) to its EigenResult, and the `bands` of
    `_predicted_bands`."""
    tcfg = cfg["torus"]
    checks = []
    extras = {"clusters": [], "weyl": [], "bands": []}

    if tcfg["cluster_pairs"]:
        cluster_spectra = {(k, npts): spectra[(None, k, npts)].scaled()
                           for k, npts in tcfg["cluster_pairs"]}
        rows = check_cluster_law(model, cluster_spectra, tcfg["cluster_levels"])
        worst_drift = max(r.relative_drift for r in rows)
        count_ok = all(r.measured_count == r.predicted_count for r in rows)
        checks.append(_leq("torus.cluster_center_drift", worst_drift, 0.02))
        checks.append(Check("torus.cluster_counts_exact", float(count_ok), 1.0,
                            count_ok, "count == k*c for every (k, m)"))
        # refinement: drift shrinks when N doubles at fixed k
        by_k = {}
        for r in rows:
            by_k.setdefault((r.power, r.level), {})[r.npoints] = r.relative_drift
        checks += _never_grows("torus.cluster_drift_improves_with_N", by_k,
                               "N-doubling reduces drift")
        extras["clusters"] = [r.__dict__ for r in rows]

    if tcfg["weyl_pairs"]:
        lam = tcfg["weyl_lambda"]
        counts = {(k, npts): int(np.count_nonzero(spectra[(None, k, npts)].raw < lam * k ** 2))
                  for k, npts in tcfg["weyl_pairs"]}
        records = check_weyl_law(counts, lam, model)
        mid = records[len(records) // 2]
        checks.append(_leq("torus.weyl_ratio_mid_k", abs(mid.ratio - 1.0), 0.1,
                           f"k={mid.power}"))
        # one group: the deviations over the sorted (k, N) pairs the records follow
        devs = dict(zip(sorted(counts), (abs(r.ratio - 1.0) for r in records)))
        checks += _never_grows("torus.weyl_ratio_converges", {lam: devs},
                               "deviation non-increasing in k")
        extras["weyl"] = [r.__dict__ for r in records]

    if bands is not None:
        # the gaps between the bands that open below band_cutoff, where
        # every solve sees both sides
        predicted = [g for g in band_gaps(bands) if g[1] < tcfg["band_cutoff"]]
        margins = {}  # {k: {N: containment margin}}
        for k, npts in tcfg["band_pairs"]:
            below = spectra[(pot, k, npts)].scaled()
            margins.setdefault(k, {})[npts] = band_containment(below, bands)
            cl = detect_clusters(below, CLUSTER_GAP * model.field)
            gaps = [cl.clusters[i + 1].lo - cl.clusters[i].hi
                    for i in range(len(cl.clusters) - 1)]
            extras["bands"].append({"k": k, "npoints": npts,
                                    "containment": margins[k][npts],
                                    "observed_gaps": gaps,
                                    "predicted_bands": bands,
                                    "predicted_gaps": band_gaps(bands)})
            # the spacing of the eigenvalues on either side of each predicted
            # gap's midpoint, over the gap's width; no eigenvalue on a side is 0
            ratios = []
            for lo, hi in predicted:
                i = int(np.searchsorted(below, 0.5 * (lo + hi)))
                ratios.append((below[i] - below[i - 1]) / (hi - lo)
                              if 0 < i < below.size else 0.0)
            if ratios:
                checks.append(_geq(f"torus.gap_width_k{k}_N{npts}", min(ratios), 0.75,
                                   "spacing across a predicted gap / its width"))
        k, npts = max(tcfg["band_pairs"], key=lambda pair: pair[1])
        checks.append(_leq("torus.band_containment", margins[k][npts], 0.05,
                           f"margin at N={npts}"))
        checks += _never_grows("torus.band_margin_shrinks", margins,
                               "containment margin non-increasing under refinement")
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


def _weyl_svg(extras: dict) -> str:
    series = []
    if extras["weyl"]:
        ks = [r["power"] for r in extras["weyl"]]
        ratios = [r["ratio"] for r in extras["weyl"]]
        series = [{"label": "measured / predicted", "x": ks, "y": ratios}]
    return reports.svg_plot(series, "eigenvalue counting ratio", "k",
                            "N_k / (k/2pi)^2 vol", reference_y=1.0)


@dataclass(frozen=True)
class Runtime:
    """A stage runner's resources: worker processes and the result cache."""

    workers: int
    cache: Path


# A stage checks the config values it reads (a bad one is a ConfigError), builds
# its inputs once and returns its plan lines and a runner over them, which
# returns (checks, details or None) and calls run_*_checks by module name.

def _star_stage(cfg: dict) -> tuple[list[str], Callable]:
    scfg, seed = cfg["star"], cfg["seed"]
    if seed < 0:
        raise ConfigError(f"star: seed {seed} must be an integer >= 0")
    if scfg["instances"] < 1:
        raise ConfigError(f"star: instances {scfg['instances']} must be an integer >= 1")
    if scfg["max_dim"] < 2 or scfg["max_degree"] < 0:
        raise ConfigError("star: max_dim must be an integer >= 2 and max_degree one >= 0")

    def run(rt: Runtime):
        return _cached_checks(rt.cache, ["star-check", seed, scfg],
                              lambda: run_star_checks(cfg, seed)), None
    return [f"{scfg['instances']} random star-product property instances"], run


def _model_stage(cfg: dict) -> tuple[list[str], Callable]:
    specs = _model_specs(cfg)

    def run(rt: Runtime):
        return _cached_checks(rt.cache, ["model-symbols", cfg["models"], cfg["caps"]],
                              lambda: run_model_checks(*specs)), None
    return [f"resolvent/projector/residue/inverse checks at N={specs[0].levels}"], run


def _torus_stage(cfg: dict) -> tuple[list[str], Callable]:
    tcfg = cfg["torus"]
    try:
        model = TorusModel.compatible(tcfg["chern"], tcfg["field"])
        pot = _potential_from_config(tcfg["potential"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"torus: {exc}") from exc
    bands = _predicted_bands(cfg, model, pot)
    jobs = _torus_jobs(cfg, model, pot)

    def run(rt: Runtime):
        return run_torus_checks(cfg, model, pot, bands, _run_jobs(jobs, rt.workers, rt.cache))
    return [f"solve {'V = 0' if j.potential is None else 'V'} eigenvalues below "
            f"{j.below:.6g} at k={j.k}, N={j.npoints}" for j in jobs], run


STAGES = {"star-check": _star_stage, "model-symbols": _model_stage, "torus": _torus_stage}
COMMANDS = {**{name: (name,) for name in STAGES}, "all": tuple(STAGES)}


def run_command(cfg: dict, command: str, n_workers: int, dry_run: bool) -> int:
    """Run (or with dry_run only plan) the stages of `command` into one report."""
    out = Path(cfg["out_dir"]) / config_hash(cfg)
    # every stage plans before any runs: a bad value is an error before compute
    plans = {name: STAGES[name](cfg) for name in COMMANDS[command]}
    if dry_run:
        for name, (lines, _) in plans.items():
            for line in lines:
                print(f"plan: {name}: {line}")
        print(f"plan: reports -> {out}")
        return EXIT_PASS
    rt = Runtime(n_workers, Path(cfg["out_dir"]) / "cache")
    results = [run(rt) for _, run in plans.values()]
    checks = [c for stage_checks, _ in results for c in stage_checks]
    extras = next((details for _, details in results if details is not None), None)
    out.mkdir(parents=True, exist_ok=True)
    reports.write_json(out / "inputs.json", cfg)
    _emit(cfg, command, checks, out, extras)
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: value={c.value:.6g} "
              f"tolerance={c.tolerance:.6g} {c.note}")
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
        if args.jobs < 1:
            raise ConfigError(f"--jobs {args.jobs} must be an integer >= 1")
        cfg = load_config(args.config)
        if args.out is not None:
            cfg["out_dir"] = args.out
        if args.seed is not None:
            cfg["seed"] = args.seed
        return run_command(cfg, args.command, args.jobs, args.dry_run)
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
