"""What importing the package and running one command loads.

A CLI run pays for every module it imports, so `import dualchain.cli`
loads only `core`, each command imports the modules it runs, and the
package's public names resolve on first use.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import dualchain

# The public names of the package, each with the module that defines it.
PUBLIC = {
    "core": ["GameConfig", "MiningState", "Schedule", "Strategy", "Zone", "c_max",
             "coexist_rb", "config_from_json", "validate_config"],
    "payoff": ["PayoffTriple", "ap_fickle", "payoff", "payoff_triple"],
    "equilibrium": ["DeviationReport", "EquilibriumSet", "Segment", "boundary13_rb",
                    "boundary23_rb", "equilibria", "finite_deviation", "solve_alpha",
                    "solve_beta", "x_threshold", "zone_of"],
    "dynamics": ["FlowConfig", "Outcome", "Trajectory", "automatic_threshold",
                 "simulate_flow", "step_best_response"],
    "chainsim": ["ChainWorld", "EpochFixed", "EpochWithEda", "MinerAgent", "PerBlockWindow",
                 "SimReport", "eda_expected_nde", "empirical_payoffs", "run", "sample_series"],
    "ingest": ["FicklePeriod", "detect_fickle_periods", "estimate_state_path", "load_series",
               "zone_path"],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]

# Prints the dualchain modules and csv as loaded after the import, then
# after dispatch(argv) when argv is given.
PROBE = """\
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("dualchain") or m == "csv")
from dualchain.cli import dispatch
print(json.dumps(loaded()))
if sys.argv[1:]:
    assert dispatch(sys.argv[1:]) == 0
    print(json.dumps(loaded()))
"""


def run_python(*args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(dualchain.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_cli_import_loads_only_core_and_a_zones_run_adds_no_simulator(tmp_path):
    config = tmp_path / "game.json"
    config.write_text(json.dumps({"k": 0.3, "n_in": 2016, "n_de": 2016, "c_stick": 0.0,
                                  "powers": [1.0]}))
    imported, after_zones = run_python("-c", PROBE, "zones", "--config", str(config),
                                       "--grid", "2", "--out", os.devnull, "--quiet")
    assert imported == ["dualchain", "dualchain.cli", "dualchain.core"]
    assert "dualchain.equilibrium" in after_zones
    assert not {"dualchain.chainsim", "dualchain.ingest"} & set(after_zones)


def test_chain_sim_run_loads_no_analytic_module(tmp_path):
    world, agents = tmp_path / "world.json", tmp_path / "agents.json"
    world.write_text(json.dumps({"k": 0.4}))
    agents.write_text(json.dumps([{"id": "a", "power": 1.0, "policy": "a_only"}]))
    _, after = run_python("-c", PROBE, "chain-sim", "--config", str(world),
                          "--agents", str(agents), "--duration", "5",
                          "--out", os.devnull, "--quiet")
    assert "dualchain.chainsim" in after
    assert not {"dualchain.ingest", "dualchain.dynamics", "dualchain.equilibrium"} & set(after)


def test_a_public_name_loads_its_module_on_first_use():
    run_python("-c", "import dualchain; dualchain.run")


def test_all_lists_the_public_names():
    assert sorted(dualchain.__all__) == sorted(name for _, name in NAMES)


@pytest.mark.parametrize("module,name", NAMES)
def test_public_name_is_its_modules_object(module, name):
    home = importlib.import_module(f"dualchain.{module}")
    assert getattr(dualchain, name) is getattr(home, name)


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from dualchain import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(importlib.import_module(f"dualchain.{module}"),
                                          name)
    assert set(dualchain.__all__) <= set(dir(dualchain))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dualchain.no_such_name


def test_submodules_still_import_by_name():
    from dualchain import chainsim, payoff as payoff_function

    assert chainsim is sys.modules["dualchain.chainsim"]
    # The package's `payoff` is the function, not its module.
    assert payoff_function is sys.modules["dualchain.payoff"].payoff
