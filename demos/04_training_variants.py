"""Model variants: what each one sees and what training does.

Six variants share one contract (per-cell Gaussian mu, sigma):

- members: ensemble mean and spread, no learning
- fcn: per-cell network on 7 summary features (1x1 kernels only)
- cnn: conv net on the 20 raw member channels
- cnn-dyn: + lon, lat, altitude, TC distance, passed flag (25 channels)
- cnn-aug: 20 channels, trained on the augmented report set
- cnn-all: 25 channels + augmentation

This demo fits two of them for one target of a small synthetic event
and compares mean CRPS over land with the members baseline. Training is
the full recipe (Adam, temporally weighted CRPS loss), shortened to 40
epochs for speed. Both folds take their inputs from one report source,
``scenario.originals()``, which alone cuts before the target:
``train_model`` fits the source's reports before the target, and the
model it returns predicts report k of the same source, refusing a report
before that target.
"""

import time
import warnings

import numpy as np

from cyclone_pp import (
    ModelConfig,
    ScenarioSpec,
    crps_gaussian,
    generate_scenario,
    make_island_domain,
    predict_members_baseline,
)
from cyclone_pp.models import train_model

domain = make_island_domain(n_rows=28, n_cols=24)
scenario = generate_scenario(ScenarioSpec(seed=4), domain)
source = scenario.originals()
k = 8
# the observation is verification data: the demo scores against it
target = source.target(k, with_observation=True)
land = domain.land_mask

print(f"target report {k}, history {[i for i, _center in source.track_before(k)]}")

baseline = predict_members_baseline(target)
base_crps = crps_gaussian(baseline.mu[land], baseline.sigma[land],
                          target.observation[land]).mean()
print(f"\nmembers baseline: mean land CRPS {base_crps:.2f} mm")

# train_model trains on the originals before k; cnn-all augments them first
for variant in ("cnn", "cnn-all"):
    config = ModelConfig.for_variant(variant, epochs=40, seed=4)
    t0 = time.time()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = train_model(config, source, domain, k)
    field = model.predict(source, domain, k)
    score = crps_gaussian(field.mu[land], field.sigma[land],
                          target.observation[land]).mean()
    print(f"{variant}: {config.epochs} epochs in {time.time() - t0:.1f}s, "
          f"mean land CRPS {score:.2f} mm "
          f"(skill vs members {1 - score / base_crps:+.2f})")

# sigma is the model's own uncertainty; wetter cells should carry more
field = model.predict(source, domain, k)
wet = target.observation > np.percentile(target.observation[land], 90)
print(f"\ncnn-all mean sigma: {field.sigma[land].mean():.2f} mm overall, "
      f"{field.sigma[wet & land].mean():.2f} mm on the wettest decile")

# the fold travels with the model: report k - 1 was a training report
try:
    model.predict(source, domain, k - 1)
except ValueError as exc:
    print(f"report {k - 1} refused: {exc}")
