"""Grid domain, terrain split, and rain-category tabulation.

The operational domain is an 84x70 lattice of 0.05 degree cells over an
island. Land cells split into plain (< 500 m) and mountain (>= 500 m).
Observed 24 h rain totals classify into four categories with boundaries
at 10, 80, and 200 mm.
"""

import numpy as np

from cyclone_pp import (
    RainCategory,
    ScenarioSpec,
    TerrainClass,
    classify_rain,
    generate_scenario,
    make_island_domain,
    tabulate_categories,
)

domain = make_island_domain()
print(f"domain: {domain.n_rows}x{domain.n_cols} = {domain.n_rows * domain.n_cols} cells")
print(f"land: {domain.n_land} cells "
      f"({domain.plain_mask.sum()} plain, {domain.mountain_mask.sum()} mountain)")

print("\ncategory boundaries:")
for mm in (0.0, 9.9, 10.0, 79.9, 80.0, 199.9, 200.0, 512.0):
    print(f"  {mm:7.1f} mm -> {classify_rain(mm).name}")

# a synthetic cyclone passage supplies observations to tabulate
scenario = generate_scenario(ScenarioSpec(seed=0), domain)
report = next(r for r in scenario.reports if r.index == 8.0)
counts = tabulate_categories(report, domain)

print(f"\nland-cell counts for report {report.index:g} "
      "(rows: category, columns: plain/mountain):")
header = f"{'':>12s} {'plain':>8s} {'mountain':>8s}"
print(header)
for cat in RainCategory:
    print(f"{cat.name:>12s} {counts[cat, 0]:8d} {counts[cat, 1]:8d}")
assert counts.sum() == domain.n_land

# terrain_class carries the same split as a per-cell field
tc = domain.terrain_class
assert int((tc == TerrainClass.PLAIN).sum()) == int(domain.plain_mask.sum())
peak = np.unravel_index(np.argmax(domain.altitude), domain.altitude.shape)
print(f"\nhighest cell: {domain.altitude[peak]:.0f} m at row {peak[0]}, col {peak[1]}")
