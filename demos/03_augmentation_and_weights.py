"""Report augmentation and temporal weighting.

A cyclone event yields only a handful of forecast reports, so training
data is scarce. Two moves expand N original reports into 2(2N-1):
midpoint interpolation between consecutive reports (index k + 0.5), and
a noise-injected copy of every report (eta times each member field's
standard deviation, clamped at zero; eta is the constant NOISE_SCALE).
Training then weights recent reports double their predecessor: raw
weights 1, 2, 4, ... per distinct index, noise copies sharing their
source's weight.
"""

from collections import Counter

from cyclone_pp import (
    NOISE_SCALE,
    ScenarioSpec,
    build_augmented_set,
    generate_scenario,
    make_island_domain,
    make_weights,
)
from cyclone_pp.domain import ReportOrigin

domain = make_island_domain(n_rows=28, n_cols=24)
scenario = generate_scenario(ScenarioSpec(seed=1, n_reports=3), domain)
originals = [r for r in scenario.reports if r.origin is ReportOrigin.ORIGINAL]
print(f"{len(originals)} original reports, indices "
      f"{[r.index for r in originals]}")

aset = build_augmented_set(originals, seed=0)
print(f"augmented set: {len(aset.reports)} reports (2(2N-1) with N=3), "
      f"noise scale eta = {NOISE_SCALE}")
multiset = Counter(r.index for r in aset.reports)
print("index multiset:", dict(sorted(multiset.items())))
origins = Counter(r.origin.name for r in aset.reports)
print("origins:", dict(origins))

# noise copies stay close to their source but are not identical
plain = next(r for r in aset.reports
             if r.index == 1.0 and r.origin is ReportOrigin.ORIGINAL)
noisy = next(r for r in aset.reports
             if r.index == 1.0 and r.origin is ReportOrigin.NOISE_INJECTED)
delta = abs(noisy.members - plain.members).mean()
print(f"mean |noise copy - original| over member fields: {delta:.3f} mm")

print("\nweights for three plain originals (oldest first):")
w = make_weights([1, 2, 3], 3)
print(f"  normalized {w.round(4).tolist()}  ratios {(w / w[0]).tolist()}")

print("weights for the six-slot augmented window below target 3:")
w6 = make_weights([1.0, 1.0, 1.5, 1.5, 2.0, 2.0], 3)
print(f"  normalized {w6.round(4).tolist()}  ratios {(w6 / w6[0]).tolist()}")
