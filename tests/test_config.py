"""Config schema tests: defaults, merging, sweeps, cache keys."""

import copy
import re
from pathlib import Path

import pytest
import yaml

from absmove import ConfigError, SolverConfig
from absmove.config import (
    DEFAULTS,
    apply_sweep,
    derive_seed,
    gcm_cache_key,
    load_config,
    merge_config,
    parse_experiment,
    parse_trial_config,
)

from absmove.sim import SOLVERS

README = Path(__file__).resolve().parents[1] / "README.md"


class TestMerge:
    def test_empty_override_yields_defaults(self):
        cfg = merge_config({})
        assert cfg == DEFAULTS
        assert cfg is not DEFAULTS

    def test_partial_override_keeps_siblings(self):
        cfg = merge_config({"fleet": {"n_abs": 4}})
        assert cfg["fleet"]["n_abs"] == 4
        assert cfg["fleet"]["n_gus"] == DEFAULTS["fleet"]["n_gus"]
        assert cfg["area"] == DEFAULTS["area"]

    def test_defaults_not_mutated(self):
        before = copy.deepcopy(DEFAULTS)
        cfg = merge_config({"area": {"d1": 250.0}, "seed": 9})
        assert DEFAULTS == before
        # Sections taken whole from the defaults are copies, not aliases.
        cfg["channel"]["k_min_db"] = None
        cfg["experiment"]["seeds"].append(5)
        assert DEFAULTS == before

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            merge_config({"flet": {"n_abs": 4}})

    def test_unknown_nested_key_names_path(self):
        with pytest.raises(ConfigError, match="channel"):
            merge_config({"channel": {"tx_power": 5.0}})

    def test_version_mismatch(self):
        with pytest.raises(ConfigError, match="version"):
            merge_config({"version": 2})

    def test_non_mapping_section(self):
        with pytest.raises(ConfigError, match="mapping"):
            merge_config({"grid": [40, 40]})


class TestLoadConfig:
    def test_yaml_file(self, tmp_path):
        p = tmp_path / "s.yaml"
        p.write_text("seed: 3\narea: {d1: 500.0, d2: 500.0}\n")
        cfg = load_config(p)
        assert cfg["seed"] == 3
        assert cfg["area"]["d1"] == 500.0
        assert cfg["grid"] == DEFAULTS["grid"]

    def test_empty_file_is_all_defaults(self, tmp_path):
        p = tmp_path / "empty.yaml"
        p.write_text("")
        assert load_config(p) == DEFAULTS

    def test_bad_yaml(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("a: [unclosed\n")
        with pytest.raises(ConfigError, match="parse"):
            load_config(p)

    def test_non_mapping_document(self, tmp_path):
        p = tmp_path / "list.yaml"
        p.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_config(p)


class TestParseTrialConfig:
    def test_defaults_round_trip(self):
        cfg = parse_trial_config(merge_config({}))
        assert cfg.spec.k1 == 40 and cfg.spec.d1 == 1000.0
        assert cfg.n_abs == 2 and cfg.n_gus == 20
        assert cfg.solver.name == "online" and cfg.solver.duplication == 3
        assert cfg.env.num_blocks == 300
        assert cfg.total_time == 200.0 and cfg.n_periods == 10

    def test_stream_seeds_are_derived_and_distinct(self):
        cfg = parse_trial_config(merge_config({}), seed=42)
        seeds = (cfg.env_seed, cfg.mobility_seed, cfg.init_seed, cfg.solver_seed)
        assert seeds == tuple(derive_seed(42, s) for s in range(4))
        assert len(set(seeds)) == 4

    def test_seed_override(self):
        base = merge_config({"seed": 1})
        a = parse_trial_config(base)
        b = parse_trial_config(base, seed=1)
        c = parse_trial_config(base, seed=2)
        assert a.env_seed == b.env_seed
        assert a.env_seed != c.env_seed

    def test_solver_override_keeps_parameters(self):
        base = merge_config({"solver": {"duplication": 7}})
        cfg = parse_trial_config(base, solver_name="kmeans-ea")
        assert cfg.solver.name == "kmeans-ea"
        assert cfg.solver.duplication == 7

    def test_types_follow_the_dataclass_fields(self):
        cfg = parse_trial_config(merge_config({
            "timing": {"total_time": "400"}, "environment": {"num_blocks": 10.0},
            "solver": {"ea_mutation_radius": 25}, "options": {"plan_before_start": True},
        }))
        assert cfg.total_time == 400.0 and type(cfg.total_time) is float
        assert cfg.env.num_blocks == 10 and type(cfg.env.num_blocks) is int
        assert cfg.solver.ea_mutation_radius == 25.0
        assert type(cfg.solver.ea_mutation_radius) is float
        assert parse_trial_config(merge_config({})).solver.ea_mutation_radius is None
        with pytest.raises(ConfigError, match="solver.duplication"):
            parse_trial_config(merge_config({"solver": {"duplication": None}}))

    def test_overridden_solver_name_is_still_checked(self):
        cfg = merge_config({"solver": {"name": None}})
        with pytest.raises(ConfigError, match="solver.name"):
            parse_trial_config(cfg, solver_name="online")

    def test_invalid_values_surface_as_config_errors(self):
        with pytest.raises(ConfigError):
            parse_trial_config(merge_config({"grid": {"k1": 0}}))
        with pytest.raises(ConfigError):
            parse_trial_config(merge_config({"channel": {"outage_threshold": 0.0}}))
        with pytest.raises(ConfigError):
            parse_trial_config(merge_config({"timing": {"flight_time": 7.5}}))
        with pytest.raises(ConfigError, match="flight_time"):
            parse_trial_config(merge_config({"timing": {"flight_time": 30.0}}))
        with pytest.raises(ConfigError, match="unknown key"):
            parse_trial_config(merge_config({"timing": {"service_time": 10.0}}))
        with pytest.raises(ConfigError, match="footprint"):
            parse_trial_config(merge_config({"environment": {"num_blocks": 2000}}))
        with pytest.raises(ConfigError, match="block_width"):
            parse_trial_config(merge_config({"environment": {"block_width": 1500.0}}))


class TestExperiment:
    def test_defaults(self):
        spec = parse_experiment(merge_config({}))
        assert spec.seeds == (0,)
        assert spec.solvers == ("online",)
        assert spec.sweep_axis is None

    def test_unknown_solver(self):
        with pytest.raises(ConfigError, match="solver"):
            parse_experiment(merge_config({"experiment": {"solvers": ["greedy"]}}))

    def test_every_solver_and_sweep_value_parsed_up_front(self):
        raw = {"fleet": {"n_abs": 3, "n_gus": 2},
               "experiment": {"solvers": ["online", "kmeans-ea"]}}
        with pytest.raises(ConfigError, match="kmeans-ea"):
            parse_experiment(merge_config(raw))
        raw = {"fleet": {"n_abs": 3},
               "experiment": {"solvers": ["kmeans-ea"],
                              "sweep": {"axis": "n_gus", "values": [5, 2]}}}
        with pytest.raises(ConfigError, match="n_gus=2"):
            parse_experiment(merge_config(raw))
        raw["experiment"]["sweep"]["values"] = [5, 3]
        trials = parse_experiment(merge_config(raw)).trials
        assert [(t.value, t.config.n_gus) for t in trials] == [(5, 5), (3, 3)]

    def test_empty_lists(self):
        with pytest.raises(ConfigError, match="seeds"):
            parse_experiment(merge_config({"experiment": {"seeds": []}}))
        with pytest.raises(ConfigError, match="solvers"):
            parse_experiment(merge_config({"experiment": {"solvers": []}}))

    @pytest.mark.parametrize("experiment, match", [
        ({"seeds": [0, 1, 0]}, "experiment.seeds lists 0"),
        ({"seeds": [3, 3.0]}, "experiment.seeds lists 3"),
        ({"solvers": ["online", "oracle", "online"]}, "experiment.solvers lists 'online'"),
        ({"sweep": {"axis": "n_abs", "values": [2, 3, 2]}}, "sweep.values lists 2 "),
        ({"sweep": {"axis": "n_abs", "values": [2, 2.0]}}, "sweep.values lists 2.0 "),
        ({"sweep": {"axis": "grid_length", "values": [25, "25.0"]}}, "lists '25.0' "),
    ])
    def test_duplicate_entries(self, experiment, match):
        with pytest.raises(ConfigError, match=match):
            parse_experiment(merge_config({"experiment": experiment}))

    def test_bad_sweep_axis(self):
        raw = {"experiment": {"sweep": {"axis": "altitude", "values": [50]}}}
        with pytest.raises(ConfigError, match="axis"):
            parse_experiment(merge_config(raw))

    def test_axis_without_values(self):
        raw = {"experiment": {"sweep": {"axis": "n_abs", "values": []}}}
        with pytest.raises(ConfigError, match="values"):
            parse_experiment(merge_config(raw))

    def test_sweep_values_validated_up_front(self):
        raw = {"experiment": {"sweep": {"axis": "grid_length", "values": [25.0, 7.0]}}}
        with pytest.raises(ConfigError, match="divide"):
            parse_experiment(merge_config(raw))
        raw = {"experiment": {"sweep": {"axis": "num_blocks", "values": [10, 2000]}}}
        with pytest.raises(ConfigError, match="footprint"):
            parse_experiment(merge_config(raw))


class TestApplySweep:
    def test_grid_length_resizes_both_planes(self):
        cfg = merge_config({"area": {"d1": 500.0, "d2": 500.0}})
        out = apply_sweep(cfg, "grid_length", 25.0)
        assert out["grid"] == {"k1": 20, "k2": 20, "k1p": 20, "k2p": 20}
        out = apply_sweep(cfg, "grid_length", 12.5)
        assert out["grid"]["k1"] == 40
        out = apply_sweep(cfg, "grid_length", 50.0)
        assert out["grid"]["k2p"] == 10

    def test_grid_length_must_divide_area(self):
        cfg = merge_config({})
        with pytest.raises(ConfigError, match="divide"):
            apply_sweep(cfg, "grid_length", 7.0)

    def test_input_not_mutated(self):
        cfg = merge_config({})
        before = copy.deepcopy(cfg)
        apply_sweep(cfg, "n_abs", 5)
        assert cfg == before

    def test_scalar_axes(self):
        cfg = merge_config({})
        assert apply_sweep(cfg, "n_abs", 3)["fleet"]["n_abs"] == 3
        assert apply_sweep(cfg, "n_gus", 50)["fleet"]["n_gus"] == 50
        assert apply_sweep(cfg, "num_blocks", 10)["environment"]["num_blocks"] == 10
        assert apply_sweep(cfg, "gu_speed", 0.5)["fleet"]["gu_speed"] == 0.5


class TestGcmCacheKey:
    def test_stable(self):
        cfg = merge_config({})
        assert gcm_cache_key(cfg, 1) == gcm_cache_key(merge_config({}), 1)

    def test_default_key_is_pinned(self):
        # A default of a map section that changes value or type would orphan
        # every cached map.
        assert gcm_cache_key(merge_config({}), 0) == (
            "8ed5f2a95c79ee3f156362d43d3c244d0a915daecfe997147bdb96663c20077a"
        )

    def test_sensitive_to_map_inputs(self):
        cfg = merge_config({})
        base = gcm_cache_key(cfg, 1)
        assert gcm_cache_key(cfg, 2) != base
        assert gcm_cache_key(merge_config({"grid": {"k1": 20}}), 1) != base
        assert gcm_cache_key(merge_config({"channel": {"outage_threshold": 0.2}}), 1) != base
        assert gcm_cache_key(merge_config({"environment": {"num_blocks": 10}}), 1) != base

    def test_ignores_non_map_inputs(self):
        cfg = merge_config({})
        base = gcm_cache_key(cfg, 1)
        assert gcm_cache_key(merge_config({"seed": 9}), 1) == base
        assert gcm_cache_key(merge_config({"fleet": {"n_gus": 99}}), 1) == base
        assert gcm_cache_key(merge_config({"timing": {"total_time": 400.0}}), 1) == base
        assert gcm_cache_key(merge_config({"solver": {"duplication": 9}}), 1) == base


def test_readme_scenario_block_lists_the_defaults():
    text = README.read_text()
    section = text[text.index("### Scenario files"):]
    block = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
    expected = {k: v for k, v in DEFAULTS.items() if k != "version"}
    assert yaml.safe_load(block) == expected


def test_readme_and_unknown_solver_error_name_the_solver_table():
    line = next(ln for ln in README.read_text().splitlines() if ln.startswith("Solver names:"))
    assert re.findall(r"`([^`]+)`", line.split(".")[0]) == list(SOLVERS)
    with pytest.raises(ConfigError) as err:
        SolverConfig(name="onlin")
    assert str(err.value) == f"unknown solver 'onlin'; known: {', '.join(SOLVERS)}"
