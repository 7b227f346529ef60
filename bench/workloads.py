"""The two benchmark workloads: one cold `magweyl` CLI run each.

Each workload is a config override merged onto the CLI defaults, the
command to run, the exact set of check names a correct run reports, and
the closed-form integers it must reproduce.  The integers are stated here
from the paper's predictions, not read back from the program: every
Landau cluster holds k*c eigenvalues, and below lambda = 1 (a gap between
clusters) the counting function is exactly k^2 c.
"""

from __future__ import annotations

from dataclasses import dataclass, field

CHERN = 1                  # default torus.chern of the CLI config
CLUSTER_LEVELS = (0, 1, 2)  # default torus.cluster_levels

_CLUSTER_CHECKS = ("torus.cluster_center_drift", "torus.cluster_counts_exact",
                   "torus.cluster_drift_improves_with_N")
_BAND_CHECKS = ("torus.band_containment", "torus.band_margin_shrinks")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    override: dict
    checks: tuple[str, ...]
    weyl_counts: dict = field(default_factory=dict)  # k -> exact N_k(1)

    @property
    def cluster_pairs(self) -> list[tuple[int, int]]:
        return [(int(k), int(n)) for k, n in self.override["torus"]["cluster_pairs"]]


_SPARSE_POTENTIAL = {"modes": [[[1, 0], [0.025, 0]], [[-1, 0], [0.025, 0]],
                               [[0, 1], [0.025, 0]], [[0, -1], [0.025, 0]]]}

WORKLOADS = {w.name: w for w in (
    # Every solve takes the dense magnetic-Bloch sector path (solve_all, and
    # solve_lowest with count 56 > 48): the target of banded sector solves.
    Workload(
        name="torus-sectors",
        command="torus",
        override={"torus": {"cluster_pairs": [[16, 64], [16, 96]],
                            "weyl_pairs": [[4, 32], [8, 64], [12, 96]],
                            "band_pairs": [[16, 64], [16, 96]]}},
        checks=_CLUSTER_CHECKS + ("torus.weyl_ratio_mid_k", "torus.weyl_ratio_converges",
                                  "torus.gap_width_k16_N64", "torus.gap_width_k16_N96")
        + _BAND_CHECKS,
        weyl_counts={4: 16, 8: 64, 12: 144},
    ),
    # Everything but the sector path: star-product properties, grid Weyl
    # quantization at d=1 and d=2, the Mehler evaluator and sharp_inverse
    # (the RSS peak), then the same torus layer by seeded shift-invert
    # Lanczos, where small counts and a y-dependent potential rule out
    # sectors.  A sector rewrite must leave this workload unchanged; a
    # change to the symbol calculus must leave torus-sectors unchanged.
    Workload(
        name="symbols-sparse",
        command="all",
        override={"torus": {"cluster_pairs": [[4, 64], [8, 64], [4, 128], [8, 128]],
                            "weyl_pairs": [],
                            "potential": _SPARSE_POTENTIAL,
                            "band_pairs": [[16, 64], [16, 128]]}},
        checks=("star.associativity", "star.pointwise_at_zero_form",
                "star.symmetrization_identity", "star.sharp_power_consistency",
                "models.resolvent_origin_anchor", "models.resolvent_matrix_oracle")
        + tuple(f"models.projector_{kind}_d{d}_m{m}"
                for d, m in ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1))
                for kind in ("idempotent", "rank"))
        + ("models.residue_identity", "models.residue_empty_contour",
           "models.sharp_inverse_vs_mehler", "models.sharp_inverse_pole_detected")
        + _CLUSTER_CHECKS + ("torus.gap_width_k16_N64", "torus.gap_width_k16_N128")
        + _BAND_CHECKS,
    ),
)}
