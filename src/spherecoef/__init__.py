"""Nonparametric random-coefficients density estimation on the sphere.

Binary choices y = 1{x'beta >= 0} with unit-norm covariates and
coefficients identify the coefficient density through the hemisphere
averages of the choice probability.  This package inverts that relation
with a closed-form filtered-harmonic estimator: no numerical integration
or optimization is needed to evaluate the fitted density.

Layout: sphere (geometry and quadrature), gegenbauer (series of the
normalised Gegenbauer polynomials, through one Chebyshev recurrence and
per-dimension connection tables), kernels (filtered kernels and
band-limited mixtures, whose coefficients are rows over the zonal
projectors q_n, and behind them the per-degree sums over anchors and a
sample's self-sums), hemisphere (the averaging operator and its inverse),
estimator (the statistical layer, which reads those sums), simulate
(synthetic designs with exact sphere densities), cli (command-line front
end, which importing the package does not load: python -m spherecoef.cli
runs it without a second copy).  Each module's __all__ is its public
API, and README.md's "Public API" section lists every one.
"""

from . import gegenbauer, hemisphere, kernels, simulate, sphere
from .estimator import (
    ChoiceSample,
    CoefficientDensity,
    DensityEstimate,
    EstimatorConfig,
    confidence_interval,
    estimate_fbeta,
    identification_diagnostic,
    marginal_density,
    standard_error,
)
from .kernels import HarmonicMixture, KernelSpec, eigenspace_dim
from .simulate import DgpSpec, GaussianMixture, generate, true_fbeta_on_sphere, true_fx_on_sphere
from .sphere import QuadratureRule, build_quadrature, sample_uniform, surface_area

__version__ = "0.1.0"

__all__ = [
    "ChoiceSample",
    "CoefficientDensity",
    "DensityEstimate",
    "DgpSpec",
    "EstimatorConfig",
    "GaussianMixture",
    "HarmonicMixture",
    "KernelSpec",
    "QuadratureRule",
    "build_quadrature",
    "confidence_interval",
    "eigenspace_dim",
    "estimate_fbeta",
    "generate",
    "identification_diagnostic",
    "marginal_density",
    "sample_uniform",
    "standard_error",
    "surface_area",
    "true_fbeta_on_sphere",
    "true_fx_on_sphere",
    "gegenbauer",
    "hemisphere",
    "kernels",
    "simulate",
    "sphere",
    "__version__",
]
