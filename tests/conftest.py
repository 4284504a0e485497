import numpy as np
import pytest

from cyclone_pp.domain import GridDomain, Report, ReportOrigin
from cyclone_pp.storage import save_grid_csv
from cyclone_pp.synthgen import Scenario, list_report_dirs, load_report, load_scenario_header


@pytest.fixture
def small_domain():
    """Hand-built 6x5 domain: a 3x2 land block, two mountain cells."""
    land = np.zeros((6, 5), dtype=bool)
    land[2:5, 1:3] = True
    alt = np.zeros((6, 5))
    alt[2, 1] = 120.0
    alt[3, 1] = 750.0
    alt[3, 2] = 1800.0
    alt[2, 2] = 60.0
    alt[4, 1] = 15.0
    alt[4, 2] = 400.0
    return GridDomain(n_rows=6, n_cols=5, lat0=23.0, lon0=121.0, cell=0.1,
                      land_mask=land, altitude=np.where(land, alt, 0.0))


def make_report(index, shape=(6, 5), origin=ReportOrigin.ORIGINAL, seed=None,
                observation=None, tc_center=(22.0, 123.0), scale=5.0,
                members=None):
    """Random-but-seeded report with 20 non-negative member fields."""
    if seed is None:
        seed = round(10 * index)  # distinct indices draw distinct fields
    rng = np.random.default_rng(seed)
    if members is None:
        members = rng.gamma(2.0, scale, size=(20, *shape))
    if observation is None:
        observation = rng.gamma(2.0, scale, size=shape)
    return Report(index=index, origin=origin, members=members,
                  observation=observation, tc_center=tc_center)


@pytest.fixture
def report_factory():
    return make_report


def load_scenario(path) -> Scenario:
    """A saved scenario read back whole: header and every report."""
    spec, domain = load_scenario_header(path)
    reports = [load_report(rdir) for _index, _noise, rdir in list_report_dirs(path)]
    return Scenario(spec=spec, domain=domain, reports=reports)


def write_bad_grid(path, kind: str) -> None:
    """Write a file at path that load_grid_csv must refuse."""
    good = np.arange(12, dtype=np.float64).reshape(3, 4)
    if kind == "one_d":
        np.save(path, good.ravel())
    elif kind == "float32":
        np.save(path, good.astype(np.float32))
    elif kind == "object":
        np.save(path, np.array([[1.0, "x"]], dtype=object), allow_pickle=True)
    elif kind == "truncated":  # cut an existing grid short, or a fresh one
        if not path.exists():
            save_grid_csv(path, good)
        path.write_bytes(path.read_bytes()[:-20])
    elif kind == "empty":
        path.write_bytes(b"")
    else:
        np.savetxt(path, good, fmt="%.17g", delimiter=",")


@pytest.fixture
def bad_grid_writer():
    return write_bad_grid
