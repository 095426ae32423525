"""Learned cloud emulators: a reproduction of "A Case for Learned
Cloud Emulators" (HotNets 2025).

The package implements the paper's full workflow (Fig. 2):

1. :mod:`repro.docs` — structured documentation catalogs, provider-
   style renderers (AWS PDF / Azure web), and the wrangler that parses
   rendered pages back (§4.1);
2. :mod:`repro.llm` — the (simulated) LLM that reads per-resource
   documentation and emits SM specs, with seeded fault models
   reproducing §5's generation-error taxonomy;
3. :mod:`repro.spec` — the SM specification grammar (Fig. 1): lexer,
   parser, AST, validator, serializer;
4. :mod:`repro.extraction` — dependency graphs, incremental extraction
   with stubs, specification linking, consistency checks (§4.2);
5. :mod:`repro.interpreter` — the emulator framework that executes SM
   specs as a mock cloud;
6. :mod:`repro.cloud` — the reference cloud used as alignment ground
   truth (the offline stand-in for the real provider);
7. :mod:`repro.alignment` — symbolic classes, guided trace generation,
   differential execution, diagnosis, the repair loop, and error
   decoding (§4.3);
8. :mod:`repro.baselines` — the Moto-like handcrafted emulator and the
   direct-to-code baseline;
9. :mod:`repro.analysis` — complexity metrics, coverage, anti-patterns,
   the cloud gym and multi-cloud comparison (§4.4);
10. :mod:`repro.scenarios` — the evaluation traces behind Fig. 3.

Quickstart::

    from repro.core import build_learned_emulator

    build = build_learned_emulator("ec2")
    emulator = build.make_backend()
    vpc = emulator.invoke("CreateVpc", {"CidrBlock": "10.0.0.0/16"})
"""

__version__ = "1.0.0"

__all__ = ["build_learned_emulator", "LearnedEmulatorBuild", "__version__"]


def __getattr__(name: str):
    # The build pipeline loads on first use, so a process that only
    # serves a learned spec (a shard worker) never imports it.
    if name in ("build_learned_emulator", "LearnedEmulatorBuild"):
        from . import core

        return getattr(core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
