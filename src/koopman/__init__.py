"""Data-driven Koopman representations of dynamical systems.

Learn finite-dimensional linear or nonlinear representations of maps and
flows from trajectory data: companion and pseudoinverse DMD, finite-section
(EDMD) operator approximations, weighted ergodic averages and partitions,
static regression onto conditional expectations, memory-kernel
decompositions, and sparse model recovery, checked against systems whose
Koopman spectra are known in closed form.
"""

from types import ModuleType as _ModuleType

from .dmd import (
    CompanionModel,
    SpectralTriple,
    companion_dmd,
    continuous_time_eigenvalues,
    moore_penrose_pseudoinverse,
    pseudoinverse_dmd,
    spectral_triple,
)
from .embedding import SnapshotPair, delay_embed, hankel_pair
from .errors import (
    DefectiveMatrixError,
    DegenerateDictionaryError,
    DegenerateFitError,
    DivergenceError,
    KoopmanError,
    KoopmanWarning,
    ObservableDomainError,
    PreconditionError,
    UsageError,
)
from .finite_section import (
    FiniteSectionMatrix,
    detect_linear_subrepresentation,
    detect_nonlinear_representation,
    dual_basis,
    finite_section_matrix,
)
from .mori_zwanzig import (
    FourierObservable,
    MzDecomposition,
    circle_rotation_closure,
    mz_decompose,
)
from .observables import (
    Observable,
    ObservableDictionary,
    fourier_box,
    monomial_library,
)
from .partitions import (
    EigenfunctionPartition,
    HarmonicAverage,
    PartitionLabeling,
    RegularGrid,
    TimeAverageField,
    eigenfunction_partition,
    ergodic_partition_approx,
    gla_eigenfunction,
    partition_invariance_score,
    time_average,
)
from .representation_eval import (
    RepresentationModel,
    conjugacy_check,
    faithfulness_estimate,
    representation_residual,
    sindy_fit,
    stability_certificate,
)
from .static_koopman import (
    PairedSamples,
    StaticFit,
    conditional_expectation_projection,
    fiber_indicator_matrix,
    fiber_mean_matrix,
    fit_static_linear,
)
from .systems import (
    SystemSpec,
    Trajectory,
    duffing_fixed_point_eigenvalues,
    hamiltonian,
    integrate,
    known_spectrum,
    spectral_lattice,
)

# every name imported above; the submodules the imports bind are left out
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]

__version__ = "0.1.0"
