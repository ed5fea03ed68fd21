"""Property tests: a config that `validate-config` accepts never crashes `run`,
and a malformed value never crashes `validate-config`.

Random tiny scenarios (grids up to 5x5, up to 3 ABSs and 5 GUs, one or two
periods, any mix of the three solvers, either objective weighting, building
layouts that may not fit the area). Whenever `validate-config` exits 0, `run`
must exit with a code from the documented table other than 1, write
`summary.csv`, and record no code-1 failure and no ConfigError; `build-gcm`
must exit 0 too, unless the first trial's city cannot be drawn. With one
leaf of such a scenario (defaults filled in) replaced by null, a list, a
string or a non-integral float, `validate-config` exits 0 or 2, never 1.
"""

import tempfile
from pathlib import Path

import pytest
import yaml

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import absmove.cli as cli  # noqa: E402
import absmove.sim as sim  # noqa: E402
from absmove.config import merge_config  # noqa: E402

SOLVERS = list(sim.SOLVERS)


@st.composite
def tiny_configs(draw) -> dict:
    step = draw(st.sampled_from([1.0, 2.0]))
    steps_per_period = draw(st.integers(2, 6))
    period = step * steps_per_period
    # From one step below zero to one step past the period: both ends are
    # config errors that validate-config must catch.
    flight_time = step * draw(st.sampled_from(range(-1, steps_per_period + 2)))
    side = draw(st.sampled_from([100.0, 150.0, 200.0]))
    low = draw(st.sampled_from([20.0, 40.0, 60.0]))
    return {
        "area": {"d1": side, "d2": side},
        "grid": {k: draw(st.integers(1, 5)) for k in ("k1", "k2", "k1p", "k2p")},
        # Some layouts cannot be drawn: too many blocks, blocks wider than
        # the area, or an inverted height range.
        "environment": {
            "num_blocks": draw(st.sampled_from([0, 1, 3, 6, 40])),
            "block_width": draw(st.sampled_from([10.0, 25.0, 40.0, 250.0])),
            "height_low": low,
            "height_high": low + draw(st.sampled_from([-10.0, 0.0, 20.0, 60.0])),
        },
        "timing": {
            "total_time": period * draw(st.integers(1, 2)),
            "period": period,
            "flight_time": flight_time,
            "planning_time": step * draw(st.integers(0, steps_per_period)),
            "step": step,
        },
        "fleet": {
            "n_abs": draw(st.integers(1, 3)),
            "n_gus": draw(st.integers(1, 5)),
            "abs_speed": draw(st.sampled_from([0.0, 5.0, 30.0])),
            "gu_speed": draw(st.sampled_from([0.0, 2.0, 10.0])),
        },
        "solver": {
            "duplication": draw(st.integers(1, 3)),
            "ea_rounds": draw(st.integers(1, 20)),
            "ea_mutation_radius": draw(st.sampled_from([None, 0.0, 40.0, 150.0])),
            "oracle_branch_and_bound": draw(st.booleans()),
        },
        "options": {
            "plan_before_start": draw(st.booleans()),
            "weight_multiplicity": draw(st.booleans()),
        },
        "experiment": {
            "seeds": [draw(st.integers(0, 1000))],
            "solvers": draw(st.lists(st.sampled_from(SOLVERS), min_size=1, max_size=3,
                                     unique=True)),
        },
    }


@settings(max_examples=170, deadline=None, derandomize=True, database=None)
@given(tiny_configs())
def test_validated_config_runs_without_unexpected_error(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.yaml"
        path.write_text(yaml.safe_dump(raw))
        if cli.main(["validate-config", str(path)]) != 0:
            return
        built = cli.main(["build-gcm", str(path), str(Path(tmp) / "m.gcm")])
        out = Path(tmp) / "run"
        assert cli.main(["run", str(path), "--out", str(out)]) in {0, 2, 3, 4, 5}
        assert (out / "summary.csv").exists()
        failures = out / "failures.csv"
        text = failures.read_text() if failures.exists() else ""
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert "1" not in [row[4] for row in rows]
        # Every config problem is caught by validate-config.
        assert "ConfigError" not in [row[3] for row in rows]
        # build-gcm draws the first trial's city; only a random block
        # placement that jams, which fails that trial of run too, stops it.
        first = ["base", raw["experiment"]["solvers"][0], str(raw["experiment"]["seeds"][0]),
                 "EnvironmentTooDenseError", "2"]
        assert built == 0 or (built == 2 and rows and rows[0][:5] == first)


def _leaf_paths(tree, path=()):
    """Key paths of every scalar or list in a config tree, and of list items."""
    if isinstance(tree, dict):
        for key, sub in tree.items():
            yield from _leaf_paths(sub, path + (key,))
        return
    yield path
    if isinstance(tree, list):
        yield from (path + (i,) for i in range(len(tree)))


MALFORMED = st.one_of(
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
    st.text(max_size=3),
    st.floats(-1e3, 1e3).filter(lambda f: not f.is_integer()),
)


@st.composite
def malformed_configs(draw) -> dict:
    cfg = merge_config(draw(tiny_configs()))
    path = draw(st.sampled_from(list(_leaf_paths(cfg))))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = draw(MALFORMED)
    return cfg


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(malformed_configs())
def test_malformed_value_never_crashes_validation(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(["validate-config", str(path)]) in {0, 2}
