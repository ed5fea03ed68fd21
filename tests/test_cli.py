"""End-to-end CLI tests: exit codes, artifacts, caching, reproducibility."""

import gc
import json
import weakref

import pytest
import yaml

from absmove import (
    ConfigError,
    ContractViolationError,
    EnvironmentTooDenseError,
    FileFormatError,
    GcmFormatError,
    InfeasibleSetError,
    OracleCapError,
    load_gcm,
)
import absmove.cli as cli


@pytest.fixture(autouse=True)
def _clean_output_root(monkeypatch):
    monkeypatch.delenv("ABSMOVE_OUTPUT_ROOT", raising=False)


def _deep_update(base: dict, over: dict) -> dict:
    for k, v in over.items():
        if isinstance(v, dict) and isinstance(base.get(k), dict):
            _deep_update(base[k], v)
        else:
            base[k] = v
    return base


def write_cfg(path, **over):
    """Small, fast scenario: open 200 m square, 5x5 grids, two periods."""
    base = {
        "area": {"d1": 200.0, "d2": 200.0},
        "grid": {"k1": 5, "k2": 5, "k1p": 5, "k2p": 5},
        "environment": {"num_blocks": 0},
        "timing": {"total_time": 40.0},
        "fleet": {"n_gus": 5},
        "solver": {"duplication": 2, "ea_rounds": 30},
        "experiment": {"seeds": [0], "solvers": ["online"], "output_dir": "runs/out"},
    }
    _deep_update(base, over)
    path.write_text(yaml.safe_dump(base))
    return path


class TestValidateConfig:
    def test_ok(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "s.yaml")
        assert cli.main(["validate-config", str(cfg)]) == 0
        assert "config ok" in capsys.readouterr().out

    @pytest.mark.parametrize("channel, radii", [
        ({}, "LoS whole area, NLoS 113.39 m"),  # LoS reaches past the 283 m diagonal
        ({"tx_power_dbm": -7.0}, "LoS 269.27 m, NLoS none"),
        ({"tx_power_dbm": 60.0}, "LoS whole area, NLoS whole area"),
    ])
    def test_prints_the_coverage_radii(self, tmp_path, capsys, channel, radii):
        cfg = write_cfg(tmp_path / "s.yaml", channel=channel)
        assert cli.main(["validate-config", str(cfg)]) == 0
        assert f"  coverage radii: {radii}\n" in capsys.readouterr().out

    def test_prints_chain_without_radii(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "coverage_radii", lambda params, d_max: None)
        assert cli.main(["validate-config", str(write_cfg(tmp_path / "s.yaml"))]) == 0
        assert "  coverage radii: chain\n" in capsys.readouterr().out

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert cli.main(["validate-config", str(tmp_path / "nope.yaml")]) == 3
        assert "io error" in capsys.readouterr().err

    def test_bad_yaml_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text("a: [unclosed\n")
        assert cli.main(["validate-config", str(p)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate-config", "run"])
    def test_non_utf8_file_is_config_error(self, tmp_path, capsys, command):
        p = tmp_path / "s.yaml"
        p.write_bytes(b"\xff\xfe\x00")
        assert cli.main([command, str(p)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "cannot parse" in err

    def test_inconsistent_timing_is_config_error(self, tmp_path, capsys):
        # A flight longer than the period, or negative, leaves no valid
        # service phase; run must refuse it before any trial starts.
        for flight_time in (30.0, -10.0):
            cfg = write_cfg(tmp_path / "s.yaml", timing={"flight_time": flight_time})
            assert cli.main(["validate-config", str(cfg)]) == 2
            assert "flight_time" in capsys.readouterr().err
            out = tmp_path / f"run{flight_time}"
            assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
            assert not (out / "trials").exists()
        capsys.readouterr()

    def test_kmeans_ea_with_fewer_gus_than_abs_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "s.yaml",
            area={"d1": 250.0, "d2": 250.0},
            fleet={"n_abs": 3, "n_gus": 2},
            experiment={"solvers": ["online", "kmeans-ea"]},
        )
        assert cli.main(["validate-config", str(cfg)]) == 2
        assert "kmeans-ea" in capsys.readouterr().err
        out = tmp_path / "run"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
        assert "kmeans-ea" in capsys.readouterr().err
        assert not (out / "trials").exists()

    @pytest.mark.parametrize("radius", [1000.0, -5.0])
    def test_bad_ea_mutation_radius_exits_2(self, tmp_path, capsys, radius):
        cfg = write_cfg(
            tmp_path / "s.yaml",
            solver={"ea_mutation_radius": radius},
            experiment={"solvers": ["online", "kmeans-ea"]},
        )
        assert cli.main(["validate-config", str(cfg)]) == 2
        assert "ea_mutation_radius" in capsys.readouterr().err
        out = tmp_path / "run"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
        assert "ea_mutation_radius" in capsys.readouterr().err
        assert not (out / "trials").exists()

    @pytest.mark.parametrize("over", [
        {"fleet": {"n_abs": None}},
        {"area": {"d1": None}},
        {"channel": {"k_min_db": None}},
        {"solver": {"duplication": [3]}},
        {"seed": None},
        {"experiment": {"seeds": 5}},
        {"experiment": {"seeds": ["a"]}},
        {"experiment": {"sweep": {"axis": "n_abs", "values": 3}}},
        {"experiment": {"sweep": {"axis": "n_abs", "values": ["x"]}}},
        {"fleet": {"n_abs": 2.7}},
        {"grid": {"k1": 10.5}},
        {"experiment": {"solvers": 5}},
        {"experiment": {"seeds": [-1]}},
        {"options": {"plan_before_start": "x"}},
        {"solver": {"name": None}},
        {"solver": {"oracle_cap": 0}},
        # The service phase is derived: period - flight_time.
        {"timing": {"service_time": 10.0}},
        # Layouts that cannot be drawn, and lists that name a trial twice.
        {"environment": {"num_blocks": 2000}},
        {"environment": {"block_width": 250.0}},
        {"experiment": {"sweep": {"axis": "num_blocks", "values": [0, 2000]}}},
        {"experiment": {"seeds": [0, 0]}},
        {"experiment": {"solvers": ["online", "online"]}},
        {"experiment": {"sweep": {"axis": "n_abs", "values": [2, 2]}}},
        # Sweep values without an axis would silently run the base scenario.
        {"experiment": {"sweep": {"values": [1, 2]}}},
    ], ids=repr)
    def test_malformed_value_exits_2(self, tmp_path, capsys, over):
        cfg = write_cfg(tmp_path / "s.yaml", **over)
        assert cli.main(["validate-config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        out = tmp_path / "run"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (out / "trials").exists()

    # validate-config checks the trials run runs: the sweep-expanded configs
    # with the listed solvers, never the base block's own solver or sizes.
    @pytest.mark.parametrize("over", [
        {"solver": {"name": "bogus"}},
        {"solver": {"name": "kmeans-ea"}, "area": {"d1": 250.0, "d2": 250.0},
         "fleet": {"n_abs": 3, "n_gus": 2}},
        {"environment": {"num_blocks": 2000},
         "experiment": {"sweep": {"axis": "num_blocks", "values": [0, 3]}}},
    ], ids=repr)
    def test_validate_config_agrees_with_run(self, tmp_path, capsys, over):
        cfg = write_cfg(tmp_path / "s.yaml", **over)
        assert cli.main(["validate-config", str(cfg)]) == 0
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()

    def test_whole_float_counts_are_accepted(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "s.yaml", grid={"k1": 5.0}, fleet={"n_abs": 2.0})
        assert cli.main(["validate-config", str(cfg)]) == 0
        assert "grids 5x5" in capsys.readouterr().out

    def test_usage_error(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("exc, code, label", [
        (ConfigError, 2, "config error"),
        (EnvironmentTooDenseError, 2, "config error"),
        (FileFormatError, 3, "io error"),
        (GcmFormatError, 3, "io error"),
        (OSError, 3, "io error"),
        (InfeasibleSetError, 4, "solver error"),
        (OracleCapError, 4, "solver error"),
        (ContractViolationError, 5, "contract violation"),
    ])
    def test_error_table(self, monkeypatch, capsys, exc, code, label):
        def fail(path):
            raise exc("induced for testing")

        monkeypatch.setattr(cli, "load_config", fail)
        assert cli.main(["validate-config", "s.yaml"]) == code
        assert capsys.readouterr().err == f"{label}: induced for testing\n"

    def test_error_outside_the_table_propagates(self, monkeypatch):
        def fail(path):
            raise RuntimeError("induced for testing")

        monkeypatch.setattr(cli, "load_config", fail)
        with pytest.raises(RuntimeError, match="induced"):
            cli.main(["validate-config", "s.yaml"])


class TestBuildGcm:
    def test_writes_map_and_sidecar(self, tmp_path):
        cfg = write_cfg(tmp_path / "s.yaml")
        out = tmp_path / "maps" / "city.gcm"
        assert cli.main(["build-gcm", str(cfg), str(out)]) == 0
        gcm = load_gcm(out)
        assert gcm.spec.k1 == 5
        meta = json.loads((tmp_path / "maps" / "city.gcm.json").read_text())
        assert meta["format"] == "absmove-gcm-cache"
        assert len(meta["key"]) == 64

    def test_rebuild_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path / "s.yaml")
        a, b = tmp_path / "a.gcm", tmp_path / "b.gcm"
        assert cli.main(["build-gcm", str(cfg), str(a)]) == 0
        assert cli.main(["build-gcm", str(cfg), str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "a.gcm", "a.gcm.json", "b.gcm", "b.gcm.json", "s.yaml",
        ]

    def test_output_root_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ABSMOVE_OUTPUT_ROOT", str(tmp_path / "root"))
        cfg = write_cfg(tmp_path / "s.yaml")
        assert cli.main(["build-gcm", str(cfg), "maps/rel.gcm"]) == 0
        assert (tmp_path / "root" / "maps" / "rel.gcm").exists()

    def test_base_solver_no_trial_uses_is_ignored(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "s.yaml", solver={"name": "bogus"},
                        experiment={"solvers": ["online"]})
        assert cli.main(["validate-config", str(cfg)]) == 0
        assert cli.main(["build-gcm", str(cfg), str(tmp_path / "m.gcm")]) == 0
        capsys.readouterr()

    def test_builds_the_map_run_caches(self, tmp_path, capsys):
        # The first trial's seed decides the map, not the file's own seed.
        cfg = write_cfg(tmp_path / "s.yaml", seed=7, experiment={"seeds": [3]})
        built = tmp_path / "m.gcm"
        assert cli.main(["build-gcm", str(cfg), str(built)]) == 0
        out = tmp_path / "run"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
        (cached,) = (out / "gcm").glob("*.gcm")
        key = json.loads((tmp_path / "m.gcm.json").read_text())["key"]
        assert json.loads(cached.with_suffix(".gcm.json").read_text())["key"] == key
        assert cached.read_bytes() == built.read_bytes()
        capsys.readouterr()


class TestRun:
    def test_artifacts_and_summary(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "s.yaml",
            experiment={"seeds": [0, 1], "solvers": ["online", "kmeans-ea"]},
        )
        out = tmp_path / "run"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2  # one row per solver
        header = lines[0].split(",")
        assert header[:3] == ["axis", "value", "solver"]
        for solver in ("online", "kmeans-ea"):
            for seed in (0, 1):
                tdir = out / "trials" / "base" / solver / f"seed{seed}"
                for name in ("metrics.csv", "periods.csv", "trajectory.json",
                             "blocks.csv", "meta.json"):
                    assert (tdir / name).exists()
        assert not (out / "failures.csv").exists()

    def test_summary_matches_trial_metas(self, tmp_path):
        cfg = write_cfg(tmp_path / "s.yaml", experiment={"seeds": [0, 1, 2]})
        out = tmp_path / "run"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
        metas = [
            json.loads((out / "trials" / "base" / "online" / f"seed{s}" / "meta.json").read_text())
            for s in (0, 1, 2)
        ]
        lines = (out / "summary.csv").read_text().strip().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        mean = sum(m["acr_simplified"] for m in metas) / 3
        assert float(row["acr_simplified_mean"]) == pytest.approx(mean, abs=1e-12)
        assert int(row["n_trials"]) == 3

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path / "s.yaml")
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", str(cfg), "--out", str(a), "--no-gcm-cache"]) == 0
        assert cli.main(["run", str(cfg), "--out", str(b), "--no-gcm-cache"]) == 0
        for rel in (
            "trials/base/online/seed0/metrics.csv",
            "trials/base/online/seed0/trajectory.json",
        ):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
        # Files carrying wall-clock timings match everywhere else.
        rel = "trials/base/online/seed0/periods.csv"
        rows_a = [ln.split(",") for ln in (a / rel).read_text().splitlines()]
        rows_b = [ln.split(",") for ln in (b / rel).read_text().splitlines()]
        t_col = rows_a[0].index("planning_time_s")
        for ra, rb in zip(rows_a, rows_b, strict=True):
            ra[t_col] = rb[t_col] = ""
            assert ra == rb
        sums_a = [ln.split(",") for ln in (a / "summary.csv").read_text().splitlines()]
        sums_b = [ln.split(",") for ln in (b / "summary.csv").read_text().splitlines()]
        p_col = sums_a[0].index("planning_time_mean_s")
        for ra, rb in zip(sums_a, sums_b, strict=True):
            ra[p_col] = rb[p_col] = ""
            assert ra == rb

    def test_gcm_cache_reused_and_guarded(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "s.yaml")
        out = tmp_path / "run"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
        cached = list((out / "gcm").glob("*.gcm"))
        assert len(cached) == 1
        sidecar = cached[0].with_suffix(".gcm.json")
        assert sidecar.exists()
        baseline = (out / "summary.csv").read_bytes()

        # Reuse path produces the same results (timing column aside).
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
        drop_time = lambda blob: [  # noqa: E731
            ln.rsplit(",", 1)[0] for ln in blob.decode().splitlines()
        ]
        assert drop_time((out / "summary.csv").read_bytes()) == drop_time(baseline)

        # A tampered sidecar is a hard error, not a silent rebuild.
        meta = json.loads(sidecar.read_text())
        meta["key"] = "0" * 64
        sidecar.write_text(json.dumps(meta))
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 3
        assert "FileFormatError" in (out / "failures.csv").read_text()
        capsys.readouterr()

        # A missing sidecar likewise.
        sidecar.unlink()
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("text", ["{bad", "[1, 2]"])
    def test_unreadable_sidecar_is_recorded_io_error(self, tmp_path, capsys, text):
        cfg = write_cfg(tmp_path / "s.yaml")
        out = tmp_path / "run"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
        (sidecar,) = (out / "gcm").glob("*.gcm.json")
        sidecar.write_text(text)
        (out / "summary.csv").unlink()
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 3
        failures = (out / "failures.csv").read_text().splitlines()
        assert failures[1].split(",")[3:5] == ["FileFormatError", "3"]
        assert (out / "summary.csv").exists()
        capsys.readouterr()

    def test_tampered_cached_map_is_recorded_io_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "s.yaml")
        out = tmp_path / "run"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
        (cached,) = (out / "gcm").glob("*.gcm")
        raw = bytearray(cached.read_bytes())
        raw[56] &= 0xFE  # cell 1 marked invalid, its row of bits left set
        cached.write_bytes(bytes(raw))
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 3
        failures = (out / "failures.csv").read_text().splitlines()
        assert failures[1].split(",")[3:5] == ["GcmFormatError", "3"]
        capsys.readouterr()

    def test_too_dense_environment_exits_2(self, tmp_path, capsys):
        # Footprint area fits on paper but random placement jams.
        cfg = write_cfg(
            tmp_path / "s.yaml",
            environment={"num_blocks": 40, "block_width": 30.0},
        )
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 2
        # Statically impossible request is a config error too.
        cfg2 = write_cfg(
            tmp_path / "s2.yaml",
            environment={"num_blocks": 500, "block_width": 30.0},
        )
        assert cli.main(["run", str(cfg2), "--out", str(tmp_path / "run2")]) == 2
        capsys.readouterr()

    def test_oracle_cap_exits_4(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "s.yaml",
            solver={"oracle_cap": 1, "oracle_branch_and_bound": False},
            experiment={"solvers": ["oracle"]},
        )
        out = tmp_path / "run"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 4
        assert "OracleCapError" in (out / "failures.csv").read_text()
        capsys.readouterr()

    def test_contract_violation_exits_5(self, tmp_path, monkeypatch, capsys):
        def boom(log, gcm=None):
            raise ContractViolationError("induced for testing")

        monkeypatch.setattr(cli, "validate_trial_log", boom)
        cfg = write_cfg(tmp_path / "s.yaml")
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 5
        capsys.readouterr()

    def test_unexpected_trial_error_is_recorded(self, tmp_path, monkeypatch, capsys):
        real_run_trial = cli.run_trial

        def flaky(tc, env, gcm):
            if tc.env_seed == first_env_seed:
                raise RuntimeError("induced for testing")
            return real_run_trial(tc, env, gcm)

        cfg = write_cfg(tmp_path / "s.yaml", experiment={"seeds": [0, 1]})
        first_env_seed = cli.parse_experiment(cli.load_config(cfg)).trials[0].config.env_seed
        monkeypatch.setattr(cli, "run_trial", flaky)
        out = tmp_path / "run"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 1
        failures = (out / "failures.csv").read_text().splitlines()
        assert len(failures) == 2
        assert failures[1].split(",")[:5] == ["base", "online", "0", "RuntimeError", "1"]
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 2 and summary[1].split(",")[5] == "1"
        assert (out / "trials" / "base" / "online" / "seed1" / "metrics.csv").exists()
        capsys.readouterr()

    def test_grid_length_sweep(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "s.yaml",
            experiment={"sweep": {"axis": "grid_length", "values": [50.0, 25.0]}},
        )
        out = tmp_path / "run"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2
        assert lines[1].startswith("grid_length,50.0,online")
        assert lines[2].startswith("grid_length,25.0,online")
        assert (out / "trials" / "grid_length=50.0" / "online" / "seed0").is_dir()
        assert (out / "trials" / "grid_length=25.0" / "online" / "seed0").is_dir()

    def test_maps_shared_by_key_across_sweep_values(self, tmp_path, monkeypatch):
        calls = dict.fromkeys(("build_gcm", "load_gcm", "generate_environment"), 0)
        for name in calls:
            def counted(*args, _real=getattr(cli, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(cli, name, counted)
        # Trials run one map key at a time, so no trial sees a second map
        # alive.
        maps, alive = [], []
        real_run_trial = cli.run_trial

        def watched(tc, env, gcm):
            if not any(ref() is gcm for ref in maps):
                maps.append(weakref.ref(gcm))
            gc.collect()
            alive.append(sum(ref() is not None for ref in maps))
            return real_run_trial(tc, env, gcm)

        monkeypatch.setattr(cli, "run_trial", watched)

        def run(out, sweep, *flags):
            cfg = write_cfg(tmp_path / "s.yaml", experiment={"seeds": [0, 1], "sweep": sweep})
            calls.update(dict.fromkeys(calls, 0))
            assert cli.main(["run", str(cfg), "--out", str(tmp_path / out), *flags]) == 0
            return tuple(calls.values())

        speed = {"axis": "gu_speed", "values": [0.0, 1.0, 2.0]}
        assert run("mem", speed, "--no-gcm-cache") == (2, 0, 2)
        assert run("cached", speed) == (2, 0, 2)
        assert run("cached", speed) == (0, 2, 2)
        grid = {"axis": "grid_length", "values": [50.0, 25.0]}
        assert run("grid", grid, "--no-gcm-cache") == (4, 0, 4)
        assert max(alive) == 1

    def test_rerun_replaces_earlier_trials(self, tmp_path):
        out = tmp_path / "run"
        for seeds in ([0, 1, 2], [0]):
            cfg = write_cfg(tmp_path / "s.yaml", experiment={"seeds": seeds})
            assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
            assert cli.main(["plot-data", str(out)]) == 0
        assert sorted(p.name for p in (out / "trials" / "base" / "online").iterdir()) == ["seed0"]
        summary = (out / "summary.csv").read_text().splitlines()
        acr = (out / "plots" / "acr_by_value.csv").read_text().splitlines()
        assert summary[1].split(",")[5] == acr[1].split(",")[3] == "1"
        assert len(list((out / "gcm").glob("*.gcm"))) == 3  # the map cache stays

    def test_clean_rerun_drops_earlier_failures(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_cfg(
            tmp_path / "s.yaml",
            solver={"oracle_cap": 1, "oracle_branch_and_bound": False},
            experiment={"solvers": ["oracle"]},
        )
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 4
        assert (out / "failures.csv").exists()
        cfg = write_cfg(tmp_path / "s.yaml")
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
        assert not (out / "failures.csv").exists()
        capsys.readouterr()


class TestPlotData:
    def test_exports(self, tmp_path):
        cfg = write_cfg(tmp_path / "s.yaml", experiment={"seeds": [0, 1]})
        out = tmp_path / "run"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
        assert cli.main(["plot-data", str(out)]) == 0
        plots = out / "plots"
        step = (plots / "stepwise_cr.csv").read_text().strip().splitlines()
        assert step[0] == "tag,solver,step,cr_simplified_mean,cr_actual_mean"
        assert len(step) == 1 + 40  # one averaged row per step
        acr = (plots / "acr_by_value.csv").read_text().strip().splitlines()
        assert len(acr) == 1 + 1
        assert int(acr[1].split(",")[3]) == 2
        traj = (plots / "trajectories.csv").read_text().strip().splitlines()
        assert len(traj) == 1 + 2 * (41 * 2 + 41 * 5)  # 2 seeds, frames x (abs + gu)
        assert (plots / "blocks.csv").exists()

    def test_incomplete_dir_is_io_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli.main(["plot-data", str(empty)]) == 3
        assert "io error" in capsys.readouterr().err

    @pytest.mark.parametrize("name, damage", [
        ("meta.json", lambda text: text[: len(text) // 2]),
        ("metrics.csv", lambda text: text.replace("\n2,", "\n2,oops", 1)),
    ], ids=["meta.json", "metrics.csv"])
    def test_corrupt_trial_file_is_io_error(self, tmp_path, capsys, name, damage):
        cfg = write_cfg(tmp_path / "s.yaml")
        out = tmp_path / "run"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
        target = out / "trials" / "base" / "online" / "seed0" / name
        target.write_text(damage(target.read_text()))
        assert cli.main(["plot-data", str(out)]) == 3
        err = capsys.readouterr().err
        assert "io error" in err and str(target) in err

    @pytest.mark.parametrize("name, key", [
        ("meta.json", "acr_actual"),
        ("meta.json", "tag"),
        ("trajectory.json", "abs_positions"),
        ("trajectory.json", "gu_positions"),
    ])
    def test_missing_key_is_io_error(self, tmp_path, capsys, name, key):
        cfg = write_cfg(tmp_path / "s.yaml")
        out = tmp_path / "run"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
        target = out / "trials" / "base" / "online" / "seed0" / name
        data = json.loads(target.read_text())
        del data[key]
        target.write_text(json.dumps(data))
        assert cli.main(["plot-data", str(out)]) == 3
        err = capsys.readouterr().err
        assert "io error" in err and str(target) in err and key in err

    def test_non_object_meta_is_io_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "s.yaml")
        out = tmp_path / "run"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
        target = out / "trials" / "base" / "online" / "seed0" / "meta.json"
        target.write_text("[1, 2]\n")
        assert cli.main(["plot-data", str(out)]) == 3
        assert str(target) in capsys.readouterr().err
