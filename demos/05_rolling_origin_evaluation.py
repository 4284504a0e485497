"""Rolling-origin evaluation: skill tables, strata, reliability.

Forecast quality is judged the way it would be used: for each target
report k in 6..11, models train only on reports before k, predict k,
and are scored against k's observation. ``rolling_origin_run`` takes
every fold's inputs from ``scenario.originals()``, the in-memory report
source, which never hands a fold report k's observation. Per-cell CRPS against the
members baseline rolls up into CRPSS box summaries stratified by rain
category and terrain, plus a reliability diagram for P(y > 200 mm).
"""

import warnings

import numpy as np

from cyclone_pp import (
    ModelConfig,
    ScenarioSpec,
    calibration_error,
    crpss_by_stratum,
    exceedance_map,
    exceedance_probability,
    generate_scenario,
    make_island_domain,
    predict_members_baseline,
    reliability_diagram,
    rolling_origin_run,
    skill_table,
)
from cyclone_pp.evaluation import concat_skill_tables

domain = make_island_domain(n_rows=28, n_cols=24)
scenario = generate_scenario(ScenarioSpec(seed=12), domain)
targets = range(6, 12)

configs = [ModelConfig.for_variant(v, seed=12) for v in ("members", "cnn-all")]
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    runs = rolling_origin_run(configs, scenario, targets=targets)

tables = []
pooled_p, pooled_y = [], []
land = domain.land_mask
for k in targets:
    # rolling_origin_run hid report k's observation from its folds; scoring reads it
    obs = scenario.originals().target(k, with_observation=True).observation
    model_field = runs[("cnn-all", k)]
    reference = runs[("members", k)]
    tables.append(skill_table(k, model_field, reference, obs, domain))
    pooled_p.append(exceedance_probability(model_field)[land])
    pooled_y.append(obs[land])

skill = concat_skill_tables(tables)
print(f"skill table: {len(skill.crpss)} land-cell rows over {len(tables)} targets")
print(f"median CRPSS of cnn-all vs members: {np.median(skill.crpss):+.3f}")

print("\nCRPSS quartiles by stratum (n, q1, median, q3):")
for (cat, terr), s in crpss_by_stratum(skill).items():
    if s.n == 0:
        continue
    print(f"  {cat.name.lower():>12s}/{terr.name.lower():<8s} n={s.n:5d}  "
          f"{s.q1:+.3f}  {s.median:+.3f}  {s.q3:+.3f}")

bins = reliability_diagram(np.concatenate(pooled_p), np.concatenate(pooled_y))
print(f"\nP(y>200) reliability over {int(bins.counts.sum())} cells, "
      f"calibration error {calibration_error(bins):.4f}")
filled = ~np.isnan(bins.mean_probability)
for p, f, c in zip(bins.mean_probability[filled], bins.event_frequency[filled],
                   bins.counts[filled]):
    print(f"  forecast {p:.2f} -> observed {f:.2f}  (n={c})")

# cells flagged as likely to exceed 200 mm near peak intensity
entries = exceedance_map(exceedance_probability(runs[("cnn-all", 8)]), domain)
print(f"\ntarget 8: {len(entries)} land cells with P(y>200) > 0.5; highest:")
for row, col, p in entries[:5]:
    print(f"  row {row:2d} col {col:2d}  p={p:.3f}")
