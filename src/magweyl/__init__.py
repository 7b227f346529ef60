"""magweyl: fiberwise star products, Weyl quantization, magnetic torus spectra."""

from .errors import ResourceLimitError
from .models import (FormulaDomainError, PoleProximityError, ProjectorQuery,
                     ResolventQuery, SymbolNotInvertibleError, harmonic_hamiltonian,
                     projector_symbol, residue_projector, resolvent_at,
                     resolvent_symbol, sharp_inverse)
from .quantize import (BlockComparison, HermiteBasisSpec, OperatorMatrix,
                       QuantizationWarning, block_compare, level_weights,
                       weyl_quantize, wigner_symbol)
from .star import (AntisymmetricForm, left_xi, moyal_product, sharp_power,
                   symmetrized_product)
from .symbols import GridSymbol, PhaseGrid, PolySymbol
from .torus import (EigenResult, MagneticLatticeOperator, PotentialSpec,
                    SolverError, TorusModel, build_magnetic_laplacian, solve)
from .verify import (ClusterReport, VerifyError, WeylLawRecord, band_containment,
                     band_gaps, check_cluster_law, check_weyl_law, detect_clusters,
                     sigma_bands, twisted_liouville_volume)

__version__ = "0.1.0"
