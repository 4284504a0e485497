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

from .augmentation import (
    DEFAULT_NOISE_SCALE,
    AugmentedSet,
    build_augmented_set,
    inject_noise,
    interpolate_reports,
)
from .domain import (
    GridDomain,
    RainCategory,
    Report,
    ReportOrigin,
    TerrainClass,
    classify_rain,
    classify_rain_field,
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
from .features import (
    CHANNEL_NAMES,
    FeatureStack,
    apply_standardizer,
    assemble_stack,
    fit_standardizer,
    tc_distance_field,
)
from .models import (
    VARIANTS,
    ModelConfig,
    TrainedModel,
    predict_members_baseline,
    rolling_origin_run,
    train_model,
)
from .scoring import (
    GaussianField,
    WeightScheme,
    crps_gaussian,
    crps_gradient,
    crpss,
    make_weights,
    weighted_loss,
)
from .synthgen import (
    Scenario,
    ScenarioSpec,
    generate_scenario,
    load_scenario,
    make_island_domain,
    save_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedSet",
    "CHANNEL_NAMES",
    "DEFAULT_NOISE_SCALE",
    "FeatureStack",
    "GaussianField",
    "GridDomain",
    "ModelConfig",
    "RainCategory",
    "Report",
    "ReportOrigin",
    "Scenario",
    "ScenarioSpec",
    "TerrainClass",
    "TrainedModel",
    "VARIANTS",
    "WeightScheme",
    "apply_standardizer",
    "assemble_stack",
    "build_augmented_set",
    "calibration_error",
    "classify_rain",
    "classify_rain_field",
    "crps_gaussian",
    "crps_gradient",
    "crpss",
    "crpss_by_stratum",
    "exceedance_map",
    "exceedance_probability",
    "fit_standardizer",
    "generate_scenario",
    "inject_noise",
    "interpolate_reports",
    "load_scenario",
    "make_island_domain",
    "make_weights",
    "predict_members_baseline",
    "reliability_diagram",
    "rolling_origin_run",
    "save_scenario",
    "skill_table",
    "tabulate_categories",
    "tc_distance_field",
    "train_model",
    "weighted_loss",
]
