"""The benchmark's traced call sites still reach the program.

``bench/spans.py`` wraps public functions by name in the modules that call
them, so a refactor that renames, moves or bypasses one silently drops a
per-layer metric from ``python3 bench/run.py --trace 1``. These tests load
that file as it is, install its tracer on the program modules, and run a
tiny ``absmove run`` batch cold (map built and cached), then warm (map
loaded), with every solver.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import absmove.cli as cli
import absmove.gcm as gcm_module
import absmove.sim as sim
from absmove import BuildingBlock, ChannelParams, Environment, GridSpec
from test_cli import write_cfg

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("absmove_bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
SITE_MODULES = sorted({mod_name for mod_name, *_ in spans._SITES})


@pytest.fixture
def tracer():
    tr = spans.Tracer()
    tr.install({name: importlib.import_module(name) for name in SITE_MODULES})
    yield tr
    tr.uninstall()


@pytest.mark.parametrize("site", spans._SITES, ids=lambda s: f"{s[0]}.{s[1]}")
def test_every_site_resolves(site):
    mod_name, attr, name, _ = site
    target = getattr(importlib.import_module(mod_name), attr, None)
    assert callable(target), f"span {name}: {mod_name}.{attr} is gone"


def test_traced_batch_fires_every_span(tmp_path, tracer, capsys):
    cfg = write_cfg(
        tmp_path / "s.yaml",
        environment={"num_blocks": 4},
        experiment={"solvers": list(sim.SOLVERS)},
    )
    out = tmp_path / "run"
    for _ in ("cold", "warm"):
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    need = {name for _, _, name, _ in spans._SITES}
    fired = set(tracer.names)
    assert need <= fired, f"spans that never fired: {sorted(need - fired)}"


def test_build_calls_the_row_hook_through_gcm(monkeypatch):
    # bench/run.py samples its calibration inside a map build by replacing
    # absmove.gcm.coverage_mask, the per-row band call.
    real = gcm_module.coverage_mask
    assert callable(real)
    links = []

    def counted(params, env, p, qs):
        links.append(len(qs))
        return real(params, env, p, qs)

    monkeypatch.setattr(gcm_module, "coverage_mask", counted)
    spec = GridSpec(d1=500.0, d2=500.0, k1=4, k2=4, k1p=5, k2p=5, abs_alt=90.0)
    env = Environment(d1=500.0, d2=500.0, seed=0,
                      blocks=(BuildingBlock((250.0, 250.0), 20.0, 60.0),))
    gcm = gcm_module.build_gcm(env, ChannelParams(), spec)
    assert len(links) == np.count_nonzero(gcm.abs_cell_valid)
    assert sum(links) > 0, "empty band: the hook saw no links"
