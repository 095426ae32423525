"""Process-fault serving scenarios: a shard worker dies mid-workload.

The geo scenarios make the *network* misbehave; this one kills a
serving **process** and grades the failover end to end, returning the
same plain result-dict shape (an ``ok`` verdict plus the evidence):

- healthy phase: a create and a read land on the tenant's shard;
- failover phase: the owning worker is SIGKILLed mid-traffic — the
  very next write must shed ``ServiceUnavailable`` with a
  ``RetryAfterSeconds`` hint and the ``ShardUnavailable`` marker
  (never a hang, never a stack trace);
- recovered phase: within a bounded wall-clock window the supervisor
  restarts the worker from its snapshot + write-attempt log, the
  recovered registry must be byte-identical to the pre-kill snapshot,
  and the retried write must land;
- verdict: the extended linearizability check over the merged
  per-shard attempt logs, with every recovery self-check folded in.

Like the geo catalog, the scenario drives a caller-supplied build
(``build.module`` + ``build.make_backend``) through a discovered
create+read workload, so it runs against any learned emulator.
"""

from __future__ import annotations

import time

from ..serve.concurrency import canonical_snapshot
from ..serve.shard import ShardedFrontDoor
from ..telemetry import Telemetry
from .geo import probe_workload, send


def shard_worker_failover(build, seed: int = 7, shards: int = 2,
                          data_dir=None, trace: str | None = None,
                          failover_budget_s: float = 30.0) -> dict:
    """Kill a tenant's shard worker, grade the shed + the recovery."""
    telemetry = Telemetry(service=build.service)
    front = ShardedFrontDoor(
        build.module, build.make_backend, shards=shards,
        data_dir=data_dir, telemetry=telemetry,
        snapshot_interval=4, seed=seed,
    )
    tenant = "shard-drill"
    result = {"name": "shard_worker_failover", "phases": {},
              "shards": shards}
    try:
        creates, read_api, read_params = probe_workload(build, seed)
        result["workload"] = {"create": creates[0][0], "read": read_api}
        supervisor = front.supervisor
        shard = supervisor.shard_for(tenant)
        result["shard"] = shard

        # Phase 1: healthy — a write and a read land on the shard.
        body, create_code = send(front, tenant, *creates[0])
        __, read_code = send(front, tenant, read_api, read_params)
        result["phases"]["healthy"] = {
            "create_code": create_code, "read_code": read_code,
            "resource": body.get("id", ""),
        }
        before = supervisor.snapshot(shard, tenant)

        # Phase 2: the worker dies — the next write sheds with a
        # Retry-After hint instead of hanging on a dead pipe.
        supervisor.kill(shard)
        shed_body, shed_code = send(front, tenant, *creates[1])
        shed_error = shed_body.get("Error") or {}
        result["phases"]["failover"] = {
            "write_code": shed_code,
            "shard_unavailable": shed_error.get("ShardUnavailable") is True,
            "retry_after": shed_error.get("RetryAfterSeconds", 0.0),
        }

        # Phase 3: bounded recovery — the supervisor restarts the
        # worker; its registry must match the pre-kill snapshot
        # byte-for-byte before the retried write lands.
        deadline = time.monotonic() + failover_budget_s
        recovered = False
        while time.monotonic() < deadline:
            if supervisor.alive(shard) and supervisor.generation(shard):
                recovered = True
                break
            time.sleep(0.05)
        after = supervisor.snapshot(shard, tenant) if recovered else None
        identical = (
            after is not None
            and canonical_snapshot(after) == canonical_snapshot(before)
        )
        __, retry_code = send(front, tenant, *creates[1])
        restart = (supervisor.restart_log or [{}])[-1]
        result["phases"]["recovered"] = {
            "restarted": recovered,
            "byte_identical": identical,
            "write_code": retry_code,
            "recovery_seconds": restart.get("recovery_seconds", 0.0),
            "replayed": restart.get("replayed", 0),
        }

        ok, mismatches = front.verify_linearizable()
        result["linearizable"] = ok
        result["mismatches"] = mismatches
        result["restarts"] = supervisor.restarts
        result["ok"] = (
            create_code == ""
            and read_code == ""
            and shed_code == "ServiceUnavailable"
            and result["phases"]["failover"]["shard_unavailable"]
            and result["phases"]["failover"]["retry_after"] > 0
            and recovered
            and identical
            and retry_code == ""
            and ok
        )
        if trace:
            from ..telemetry.export import write_trace

            write_trace(telemetry, trace)
        return result
    finally:
        front.close()


SHARD_SCENARIOS = (shard_worker_failover,)


def run_shard_scenarios(build, seed: int = 7) -> list[dict]:
    """Every process-fault scenario, in catalog order."""
    return [scenario(build, seed=seed) for scenario in SHARD_SCENARIOS]
