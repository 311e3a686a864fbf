"""The hot layers stay where perfbench/tracing.py times them.

The benchmark replaces each traced function at the module attribute its
caller looks up.  A refactor that calls a hot layer some other way hides
its time from the benchmark's layer-coverage floor; these tests fail first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from proplimit import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# One small call per route, and the traced layers it must pass through.
ROUTES = {
    "sample-prior": (
        ['routes=["mixture"]', "x=[[1.0, 0.5], [0.2, -1.0]]", "n_out=2", "depth=3",
         "width=5", "n_samples=70"],
        {"sampling.bartlett_chain_draws", "backend.lt_chain_multiply"},
    ),
    "sample-limit": (
        ["a=0.5", "dim=3", "steps=16", "n_samples=70"],
        {"limit.simulate_paths", "limit.vbar_limit_from_grid", "backend.suffix_mac"},
    ),
}


@pytest.fixture(scope="module")
def tracing():
    """perfbench/tracing.py, loaded without writing bytecode beside it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_site_resolves(tracing):
    assert tracing.Tracer().absent == []


@pytest.mark.parametrize("command", sorted(ROUTES))
def test_route_reaches_its_traced_layers(tracing, monkeypatch, tmp_path, command):
    settings, layers = ROUTES[command]
    calls = dict.fromkeys(layers, 0)

    def counted(span, fn):
        def wrapper(*args, **kwargs):
            calls[span] += 1
            return fn(*args, **kwargs)

        return wrapper

    for span, module, attr in tracing.SITES:
        if span in layers:
            mod = importlib.import_module(module)
            monkeypatch.setattr(mod, attr, counted(span, getattr(mod, attr)))
    argv = [command, "--seed", "3", "--out-dir", str(tmp_path), "--set", "workers=1"]
    for item in settings:
        argv += ["--set", item]
    assert cli.main(argv) == 0
    assert all(calls.values()), calls
