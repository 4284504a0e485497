"""Release gate: nine independently checkable criteria, one test each.

Run ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; each test also prints a one-line summary with the measured
numbers. The skill and calibration criteria share one twenty-scenario
sweep at the reduced 28x24 domain, which stays inside its five-minute
budget on a single core.
"""

import dataclasses
import time
import warnings
from collections import Counter

import numpy as np
import pytest

from conftest import make_report
from cyclone_pp.augmentation import build_augmented_set
from cyclone_pp.cli import main
from cyclone_pp.domain import (
    RainCategory,
    classify_rain,
    classify_rain_field,
    tabulate_categories,
)
from cyclone_pp.evaluation import (
    calibration_error,
    exceedance_probability,
    reliability_diagram,
)
from cyclone_pp.models import ModelConfig, rolling_origin_run
from cyclone_pp.neuralnet import (
    ConvLayer,
    Network,
    Parameter,
    SoftplusLayer,
    im2col,
    kaiming_init,
)
from cyclone_pp.scoring import (
    crps_gaussian,
    crps_gradient,
    crps_quadrature_oracle,
    make_weights,
)
from cyclone_pp.storage import read_json
from cyclone_pp.synthgen import ScenarioSpec, generate_scenario, make_island_domain

TARGETS = range(6, 12)


def report_line(n: int, ok: bool, detail: str) -> str:
    line = f"criterion {n} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


def max_rel_err(got, want, floor=1e-8):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), floor)))


def finite_difference(f, x, h=1e-4):
    """Central-difference gradient of scalar f() w.r.t. array x, in place."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f()
        x[idx] = orig - h
        fm = f()
        x[idx] = orig
        grad[idx] = (fp - fm) / (2 * h)
    return grad


@pytest.fixture(scope="module")
def sweep():
    """Twenty seeded scenarios, members/cnn/cnn-all, targets 6..11.

    Per scenario: median cell CRPSS of cnn-all and cnn against the
    members baseline over heavy-or-worse plain cells, and the reliability
    calibration error of P(y > 200 mm) for members and cnn-all pooled
    over all land cells.
    """
    domain = make_island_domain(n_rows=28, n_cols=24)
    land = domain.land_mask
    variants = ("members", "cnn", "cnn-all")
    rows = []
    t0 = time.time()
    for seed in range(20):
        scenario = generate_scenario(ScenarioSpec(seed=seed), domain)
        configs = [ModelConfig.for_variant(v, seed=seed) for v in variants]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            runs = rolling_origin_run(configs, scenario, targets=TARGETS)
        by_index = {r.index: r for r in scenario.reports}
        heavy = {v: [] for v in variants}
        pooled_p = {v: [] for v in variants}
        pooled_y = []
        for k in TARGETS:
            obs = by_index[float(k)].observation
            cats = classify_rain_field(obs)
            sel = (domain.plain_mask
                   & ((cats == RainCategory.HEAVY)
                      | (cats == RainCategory.BEYOND_HEAVY)))
            for v in variants:
                g = runs[(v, k)]
                if sel.any():
                    heavy[v].append(crps_gaussian(g.mu[sel], g.sigma[sel], obs[sel]))
                pooled_p[v].append(exceedance_probability(g)[land])
            pooled_y.append(obs[land])
        mem = np.concatenate(heavy["members"])
        med = {v: float(np.median(1.0 - np.concatenate(heavy[v]) / mem))
               for v in ("cnn", "cnn-all")}
        ece = {v: calibration_error(
                   reliability_diagram(np.concatenate(pooled_p[v]),
                                       np.concatenate(pooled_y)))
               for v in ("members", "cnn-all")}
        rows.append({"seed": seed, "median_cnn_all": med["cnn-all"],
                     "median_cnn": med["cnn"], "ece_members": ece["members"],
                     "ece_cnn_all": ece["cnn-all"]})
    return {"rows": rows, "elapsed": time.time() - t0}


def test_c1_crps_closed_form_matches_quadrature():
    rng = np.random.default_rng(11)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        mu = rng.uniform(-50.0, 350.0)
        sigma = rng.uniform(0.1, 120.0)
        y = rng.uniform(0.0, 400.0)
        closed = crps_gaussian(mu, sigma, y)
        oracle = crps_quadrature_oracle(mu, sigma, y)
        worst = max(worst, abs(closed - oracle) / abs(oracle))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    line = report_line(1, ok, f"1000 triples, max rel err {worst:.2e} "
                              f"(tol 1e-6), {elapsed:.1f}s (< 10s)")
    assert ok, line


def test_c2_gradients_pass_finite_difference_checks():
    t0 = time.time()
    rng = np.random.default_rng(12)
    errs = {}

    # analytic CRPS gradients on 200 random triples
    mu = rng.uniform(-20.0, 250.0, size=200)
    sigma = rng.uniform(0.5, 60.0, size=200)
    y = rng.uniform(0.0, 300.0, size=200)
    dmu, dsigma = crps_gradient(mu, sigma, y)
    h = 1e-4
    fd_mu = (crps_gaussian(mu + h, sigma, y) - crps_gaussian(mu - h, sigma, y)) / (2 * h)
    fd_sigma = (crps_gaussian(mu, sigma + h, y) - crps_gaussian(mu, sigma - h, y)) / (2 * h)
    errs["crps_mu"] = max_rel_err(dmu, fd_mu)
    errs["crps_sigma"] = max_rel_err(dsigma, fd_sigma)

    # every layer type on randomized small shapes, params and inputs; conv
    # layers take im2col patch rows, seen as a (1, width, rows, 1) layer
    # array, so their input gradient is with respect to those rows
    def layer_errors(layer, params, x, label):
        g = rng.standard_normal(layer.forward(x).shape)

        def loss():
            return float(np.sum(layer.forward(x) * g))

        loss()
        grad_x = layer.backward(g)
        for p in params:
            errs[f"{label}_{p.name}"] = max_rel_err(
                p.grad, finite_difference(loss, p.value))
        errs[f"{label}_input"] = max_rel_err(grad_x, finite_difference(loss, x))

    def conv_params(in_channels, out_channels, kh, kw):
        """float64 Kaiming kernels and a zero bias."""
        kernels = kaiming_init(in_channels * kh * kw, (out_channels, in_channels, kh, kw), rng)
        return [Parameter(kernels, name="kernels"), Parameter(np.zeros(out_channels), name="bias")]

    def patch_rows(shape, kernel):
        """The patch rows of a batch of random (C, H, W) stacks."""
        return np.concatenate([im2col(x, kernel) for x in rng.standard_normal(shape)])

    for label, (n_in, n_out, kh, kw), shape in (("conv2x2", (3, 4, 2, 2), (2, 3, 5, 4)),
                                                ("conv1x1", (4, 2, 1, 1), (2, 4, 3, 3))):
        params = conv_params(n_in, n_out, kh, kw)
        layer_errors(ConvLayer(*params), params,
                     patch_rows(shape, (kh, kw)).T[None, :, :, None], label)
    layer_errors(SoftplusLayer(), [], rng.standard_normal((2, 3, 4, 4)), "softplus")

    # the shipped network, its parameters widened to float64 so finite
    # differences resolve; its first conv computes no input gradient
    drawn = Network.kaiming(3, 6, (2, 2), rng)
    net = Network(*(p.value.astype(np.float64) for p in drawn.parameters()))
    x = patch_rows((2, 3, 4, 5), (2, 2))
    g = rng.standard_normal((len(x), 2))

    def net_loss():
        return float(np.sum(net.forward(x) * g))

    net_loss()
    net.backward(g)
    for i, p in enumerate(net.parameters()):
        errs[f"net_p{i}"] = max_rel_err(p.grad, finite_difference(net_loss, p.value))

    worst_name, worst = max(errs.items(), key=lambda kv: kv[1])
    elapsed = time.time() - t0
    ok = worst <= 1e-4 and elapsed < 30.0
    line = report_line(2, ok, f"{len(errs)} checks, worst {worst:.2e} "
                              f"({worst_name}, tol 1e-4), {elapsed:.1f}s (< 30s)")
    assert ok, line


def test_c3_augmentation_counts_and_index_multiset():
    counts = {}
    ok = True
    for n in (2, 3, 5, 15):
        originals = [make_report(float(i), seed=100 + i) for i in range(1, n + 1)]
        aset = build_augmented_set(originals, eta=0.05, seed=0)
        expected = Counter()
        for i in range(1, n + 1):
            expected[float(i)] += 2
        for i in range(1, n):
            expected[i + 0.5] += 2
        got = Counter(r.index for r in aset.reports)
        counts[n] = len(aset.reports)
        ok = ok and len(aset.reports) == 2 * (2 * n - 1) and got == expected
    line = report_line(3, ok, f"N->count {counts} (2(2N-1); N=15 -> 58), "
                              "index multisets exact")
    assert ok, line


def test_c4_temporal_weight_ratios_exact():
    w3 = make_weights([1, 2, 3], 3)
    w6 = make_weights([3.0, 3.0, 3.5, 3.5, 4.0, 4.0], 4)
    ok = (np.array_equal(w3 / w3[0], [1.0, 2.0, 4.0])
          and np.array_equal(w6 / w6[0], [1.0, 1.0, 2.0, 2.0, 4.0, 4.0])
          and w3.sum() == pytest.approx(1.0) and w6.sum() == pytest.approx(1.0))
    line = report_line(4, ok, "3 originals -> 1:2:4, six-slot augmented -> "
                              "1:1:2:2:4:4, both exact")
    assert ok, line


def test_c5_rolling_origin_causality_bit_identical():
    domain = make_island_domain(n_rows=14, n_cols=12)
    scenario = generate_scenario(ScenarioSpec(seed=5), domain)
    k = 8
    configs = [ModelConfig.for_variant(v, epochs=6, seed=1)
               for v in ("members", "fcn", "cnn", "cnn-dyn", "cnn-aug", "cnn-all")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        baseline = rolling_origin_run(configs, scenario, targets=[k])

    mutated_reports = []
    for r in scenario.reports:
        if r.index > k:
            r = dataclasses.replace(
                r, members=r.members * 3.0 + 11.0,
                observation=r.observation * 0.1,
                tc_center=(r.tc_center[0] + 2.0, r.tc_center[1] - 2.0))
        elif r.index == k:
            # forecast fields stay (they are the prediction inputs); the
            # target's own observation is mutated like any future value
            r = dataclasses.replace(r, observation=r.observation * 0.1 + 7.0)
        mutated_reports.append(r)
    mutated = dataclasses.replace(scenario, reports=mutated_reports)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        after = rolling_origin_run(configs, mutated, targets=[k])

    ok = all(baseline[key].mu.tobytes() == after[key].mu.tobytes()
             and baseline[key].sigma.tobytes() == after[key].sigma.tobytes()
             for key in baseline)
    line = report_line(5, ok, f"target {k}: all 6 variants bit-identical "
                              "after mutating every report >= k "
                              "(incl. the target's observation)")
    assert ok, line


def test_c6_cnn_all_beats_members_on_heavy_plain_cells(sweep):
    rows = sweep["rows"]
    positive = sum(r["median_cnn_all"] > 0 for r in rows)
    at_least_cnn = sum(r["median_cnn_all"] >= r["median_cnn"] for r in rows)
    n = len(rows)
    ok = (n >= 20 and positive >= 0.8 * n and at_least_cnn >= 0.7 * n
          and sweep["elapsed"] < 300.0)
    line = report_line(6, ok, f"median CRPSS > 0 in {positive}/{n} "
                              f"(need >= {int(0.8 * n)}), cnn-all >= cnn in "
                              f"{at_least_cnn}/{n} (need >= {int(0.7 * n)}), "
                              f"sweep {sweep['elapsed']:.0f}s (< 300s at 28x24)")
    assert ok, line


def test_c7_cnn_all_calibration_not_worse_than_members(sweep):
    rows = sweep["rows"]
    wins = sum(r["ece_cnn_all"] <= r["ece_members"] for r in rows)
    n = len(rows)
    ok = wins >= 0.7 * n
    line = report_line(7, ok, f"P(y>200) calibration error <= members in "
                              f"{wins}/{n} scenarios (need >= {int(0.7 * n)})")
    assert ok, line


def test_c8_pipeline_stages_hash_stable(tmp_path_factory):
    grid = ["--rows", "14", "--cols", "12"]
    outputs = {}
    for run in range(3):
        root = tmp_path_factory.mktemp(f"determinism{run}")
        scen, aug = root / "scen", root / "aug"
        model, pred, ev = root / "model", root / "pred", root / "eval"
        assert main(["generate", "--seed", "11", *grid, "--out", str(scen)]) == 0
        assert main(["augment", "--scenario", str(scen), "--out", str(aug)]) == 0
        assert main(["train", "--scenario", str(scen), "--variant", "cnn-all",
                     "--target", "6", "--epochs", "2", "--out", str(model)]) == 0
        assert main(["predict", "--checkpoint", str(model),
                     "--scenario", str(scen), "--target", "6",
                     "--out", str(pred)]) == 0
        assert main(["evaluate", "--predictions", str(pred),
                     "--scenario", str(scen), "--out", str(ev)]) == 0
        for stage, d in (("generate", scen), ("augment", aug),
                         ("train", model), ("predict", pred), ("evaluate", ev)):
            outputs.setdefault(stage, []).append(
                read_json(d / "manifest.json")["outputs"])
    ok = all(outs[0] == outs[1] == outs[2] for outs in outputs.values())
    line = report_line(8, ok, "5 stages x 3 consecutive runs: "
                              "identical output hashes per stage")
    assert ok, line


def test_c9_domain_cell_count_and_tabulation_oracle():
    domain = make_island_domain()
    scenario = generate_scenario(ScenarioSpec(seed=0), domain)
    n_cells = domain.n_rows * domain.n_cols
    ok = n_cells == 5880
    checked = 0
    for report in scenario.reports:
        fast = tabulate_categories(report, domain)
        slow = np.zeros((len(RainCategory), 2), dtype=int)
        obs = report.observation
        for i in range(domain.n_rows):
            for j in range(domain.n_cols):
                if not domain.land_mask[i, j]:
                    continue
                cat = int(classify_rain(float(obs[i, j])))
                # plain below 500 m, mountain at or above
                col = 0 if domain.altitude[i, j] < 500.0 else 1
                slow[cat, col] += 1
        ok = ok and np.array_equal(fast, slow) and fast.sum() == domain.n_land
        checked += 1
    line = report_line(9, ok, f"84x70 domain has {n_cells} cells "
                              f"(want 5880); tabulation matches the per-cell "
                              f"oracle on {checked} reports")
    assert ok, line
