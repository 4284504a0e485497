"""Probabilistic post-processing of tropical-cyclone rainfall ensembles.

The package turns a 20-member rainfall forecast for one report time
into a per-cell Gaussian predictive distribution, trained on the
preceding reports of the same event. Submodules:

- ``domain``: grid geometry, rain categories, the Report container
- ``features``: per-cell channel stacks and their standardization
- ``augmentation``: midpoint interpolation and noise expansion
- ``scoring``: Gaussian CRPS, gradients, temporal weights, CRPSS
- ``neuralnet``: the small from-scratch conv net and Adam
- ``models``: variant configs, training, the rolling-origin driver
- ``evaluation``: skill tables, exceedance maps, reliability
- ``synthgen``: synthetic cyclone scenarios and their on-disk form
- ``cli``: the five-stage command-line pipeline
"""

from .augmentation import NOISE_SCALE, build_augmented_set
from .domain import (
    RainCategory,
    ReportOrigin,
    TerrainClass,
    classify_rain,
    tabulate_categories,
)
from .evaluation import (
    calibration_error,
    crpss_by_stratum,
    exceedance_map,
    exceedance_probability,
    reliability_diagram,
    skill_table,
)
from .models import ModelConfig, predict_members_baseline, rolling_origin_run
from .scoring import GaussianField, crps_gaussian, crps_gradient, crpss, make_weights
from .synthgen import ScenarioSpec, generate_scenario, make_island_domain

__version__ = "0.1.0"

#: the names README and ``demos/`` use; everything else is imported from
#: its submodule
__all__ = [
    "GaussianField",
    "ModelConfig",
    "NOISE_SCALE",
    "RainCategory",
    "ReportOrigin",
    "ScenarioSpec",
    "TerrainClass",
    "build_augmented_set",
    "calibration_error",
    "classify_rain",
    "crps_gaussian",
    "crps_gradient",
    "crpss",
    "crpss_by_stratum",
    "exceedance_map",
    "exceedance_probability",
    "generate_scenario",
    "make_island_domain",
    "make_weights",
    "predict_members_baseline",
    "reliability_diagram",
    "rolling_origin_run",
    "skill_table",
    "tabulate_categories",
]
