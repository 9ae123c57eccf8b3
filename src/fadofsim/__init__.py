"""Simulation toolkit for an atomic Faraday filter applied to OPO photon pairs."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .correlations import (
    DetectorConfig,
    Histogram,
    detected_histogram,
    g2_multi_comb,
    g2_multi_exact,
    g2_single,
    g2_single_fwhm,
)
from .cvnoise import (
    NoiseFit,
    NoiseModel,
    excess_noise,
    noise_vs_power_fit,
    photon_flux,
    quadrature_variance_avg,
    squeezing_through_loss,
)
from .lines import AtomicLineTable, LineComponent, zeeman_components
from .opo import ModeComb, OpoConfig, mode_comb, output_spectrum
from .pairs import (
    PairTransmissionMap,
    optimize_filter,
    overall_degenerate_fraction,
    pair_transmission_map,
    resonant_degenerate_fraction,
    spectral_purity,
)
from .spectrum import BoundaryPeakError, FilterMetrics, Spectrum, filter_metrics, make_frequency_grid
from .susceptibility import complex_susceptibility, complex_voigt, vapor_density
from .vapor import (
    FilterConfig,
    HotCellConfig,
    VaporCell,
    fadof_transmission,
    hot_cell_transmission,
    optical_depth,
)

# the public API is every name imported above
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
