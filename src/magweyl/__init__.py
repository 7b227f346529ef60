"""magweyl: fiberwise star products, Weyl quantization, magnetic torus spectra."""

from .errors import ResourceLimitError
from .forms import (AntisymmetricForm, DegenerateFormError, MetricForm,
                    SymplecticFrame, symplectic_frame, williamson_eigenvalues)
from .models import (FormulaDomainError, PoleProximityError, ProjectorQuery,
                     ResolventQuery, SymbolNotInvertibleError, SymbolSpectrum,
                     WindowBoundaryError, harmonic_hamiltonian, projector_symbol,
                     residue_projector, resolvent_at, resolvent_symbol,
                     sharp_inverse, spectral_window_symbol, spectrum_of_symbol)
from .quantize import (BlockComparison, HermiteBasisSpec, OperatorMatrix,
                       QuantizationWarning, block_compare, hermite_table,
                       level_weights, weyl_product_grid, weyl_quantize,
                       wigner_symbol)
from .star import left_xi, moyal_product, sharp_power, symmetrized_product
from .symbols import GridSymbol, PhaseGrid, PolySymbol
from .torus import (EigenResult, MagneticLatticeOperator, PotentialSpec,
                    SolverError, TorusModel, build_magnetic_laplacian,
                    count_below, exact_landau_reference, solve)
from .verify import (ClusterReport, VerifyError, WeylLawRecord, band_containment,
                     band_gaps, check_cluster_law, check_weyl_law, detect_clusters,
                     sigma_bands, twisted_liouville_volume)

__version__ = "0.1.0"
