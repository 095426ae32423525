"""Import hygiene: each package imports on its own, and a shard worker
loads only the serving stack.

Every check runs in a fresh interpreter, because what matters is the
first ``repro`` import of a process: a spawned shard worker starts by
importing ``repro.serve.shard``, and an import cycle shows only when
its modules load in one particular order.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Each of these must import as the first ``repro`` import of a process.
STANDALONE = (
    "repro.spec",
    "repro.interpreter",
    "repro.durability",
    "repro.durability.snapshot",
    "repro.resilience",
    "repro.resilience.chaos",
    "repro.telemetry",
    "repro.obs",
    "repro.serve",
    "repro.serve.shard",
    "repro.netem",
    "repro.extraction",
    "repro.llm",
    "repro.core",
    "repro.cli",
)

#: The build pipeline: a process that only serves never loads these.
BUILD_ONLY = (
    "repro.core",
    "repro.alignment",
    "repro.extraction",
    "repro.scenarios",
    "repro.llm",
    "repro.docs",
    "repro.cloud",
    "repro.baselines",
    "repro.analysis",
    "networkx",
)


def _fresh_import(module: str) -> list[str]:
    """The modules loaded by importing ``module`` in a new interpreter."""
    script = (
        "import json, sys\n"
        f"import {module}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def _under(loaded: list[str], packages) -> list[str]:
    return [
        name for name in loaded
        if any(name == p or name.startswith(p + ".") for p in packages)
    ]


@pytest.mark.parametrize("module", STANDALONE)
def test_imports_first(module):
    assert module in _fresh_import(module)


def test_shard_worker_loads_only_the_serving_stack():
    """Spawn imports ``repro.serve.shard`` in every worker, at every
    start and restart; the build pipeline must not come with it."""
    assert _under(_fresh_import("repro.serve.shard"), BUILD_ONLY) == []


def test_cli_module_loads_no_pipeline():
    """Spawn re-runs a console script's module (which imports
    ``repro.cli``) in every worker of ``repro serve-bench --shards``."""
    loaded = _fresh_import("repro.cli")
    assert _under(loaded, ("repro.docs", "repro.core")) == []


def test_public_names_resolve_lazily():
    import repro

    from repro.core import build_learned_emulator, LearnedEmulatorBuild

    assert repro.build_learned_emulator is build_learned_emulator
    assert repro.LearnedEmulatorBuild is LearnedEmulatorBuild
    assert repro.__version__
    with pytest.raises(AttributeError):
        repro.no_such_name
