"""The import graph: a simulation loads only what it runs.

Package ``__init__`` files import nothing (``repro`` resolves its
quickstart names lazily, ``repro.collectives`` holds the
``COLLECTIVE_CLASSES`` table and ``repro.results`` its store API), so a
fresh ``import repro.harness.network`` must not drag in the job runner,
the sweeps, the audits or the results service — nor the stdlib
machinery only they use.  Nor may ``import repro.harness.cli`` load more
than its argparse tables need: ``repro --help`` and a command's argument
error load no job runner, sweep or results store.  docs/architecture.md
states the layering.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

#: Never loaded by ``import repro.harness.network``.
NOT_LOADED = (
    "multiprocessing", "socket", "sqlite3", "http.server",
    "repro.results", "repro.faults",
    "repro.harness.jobs", "repro.harness.sweep", "repro.harness.motivation",
    "repro.harness.replication", "repro.harness.analysis",
    "repro.obs.nacks", "repro.obs.perfetto", "repro.obs.profile",
    "repro.themis.audit",
)


#: Loaded only by the installers of the schemes that use them.
INSTALLER_ONLY = (
    "repro.themis.dest", "repro.themis.source", "repro.themis.pathmap",
    "repro.conweave.dest", "repro.conweave.source", "repro.switch.pfc",
)

#: Run in a fresh interpreter: the modules loaded by the import, then by
#: building an rps fabric.
_PROBE = """
import json, sys
import repro.harness.network as network
after_import = sorted(sys.modules)
network.Network(network.NetworkConfig(scheme="rps"))
print(json.dumps([after_import, sorted(sys.modules)]))
"""


#: Never loaded by ``import repro.harness.cli``: each command imports
#: its own experiment family.  (``repro.themis.memory`` is not listed:
#: ``repro.harness.network`` loads it, through ``ThemisConfig``'s ring
#: sizing.)
CLI_NOT_LOADED = (
    "multiprocessing", "sqlite3", "repro.results",
    "repro.harness.jobs", "repro.harness.sweep", "repro.harness.motivation",
    "repro.harness.collective_runner", "repro.harness.replication",
)

#: The modules the CLI's argparse tables need, then the CLI itself.
_CLI_PROBE = """
import json, sys
import repro.collectives, repro.harness.network, repro.harness.report
import repro.obs.console
tables = sorted(sys.modules)
import repro.harness.cli
print(json.dumps([tables, sorted(sys.modules)]))
"""


def _probe(code):
    """The last line ``code`` prints in a fresh interpreter, decoded."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


@pytest.fixture(scope="module")
def fresh_modules():
    after_import, after_build = _probe(_PROBE)
    return set(after_import), set(after_build)


def test_cli_loads_no_command_module():
    tables, after_cli = map(set, _probe(_CLI_PROBE))
    assert sorted(set(CLI_NOT_LOADED) & after_cli) == []
    assert sorted(m for m in after_cli - tables
                  if m.startswith("repro")) == ["repro.harness.cli"]


def test_network_loads_no_optional_subsystem(fresh_modules):
    after_import, _ = fresh_modules
    assert "repro.harness.network" in after_import
    assert sorted(set(NOT_LOADED) & after_import) == []


def test_one_time_series_path(fresh_modules):
    """Time series are the recorder's window sink; the old primitives
    module neither loads with the network nor exists."""
    after_import, _ = fresh_modules
    assert "repro.obs.timeseries" not in after_import
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.obs.timeseries")


def test_rps_fabric_loads_no_installer_module(fresh_modules):
    _, after_build = fresh_modules
    assert sorted(set(NOT_LOADED + INSTALLER_ONLY) & after_build) == []


def test_themis_core_is_pure():
    """Themis-D's rules (FlowEntry) run without a fabric: importing them
    loads no engine, switch, recorder or harness module."""
    loaded = _probe("import json, sys\n"
                    "import repro.themis.flow_table\n"
                    "print(json.dumps(sorted(sys.modules)))")
    assert [m for m in loaded if m.startswith(
        ("repro.sim", "repro.switch", "repro.obs", "repro.harness"))] == []
    assert "repro.themis.flow_table" in loaded


def test_every_quickstart_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_unknown_name_raises():
    with pytest.raises(AttributeError):
        repro.does_not_exist
