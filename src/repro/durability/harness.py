"""Crash→resume harness: prove a build survives any kill schedule.

The durability claim is behavioural: *crash the build wherever you
like, as often as you like — resuming from the journal converges on a
saved emulator byte-identical to one built without interruption.*
This module is the loop that tests (and CI) use to assert exactly
that: arm a kill schedule, run the build, catch the simulated death,
resume, repeat until a run completes; then compare artifact trees
byte-for-byte against an undisturbed control build.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from ..resilience.killswitch import (
    SimulatedCrash,
    clear_kill_switch,
    install_kill_switch,
)
from .journal import DurabilityStats


@dataclass
class CrashRun:
    """What one crash→resume loop went through before converging."""

    build: object
    #: (site, hit) of every injected death, in order.
    crashes: list[tuple[str, int]] = field(default_factory=list)
    attempts: int = 0
    stats: DurabilityStats = field(default_factory=DurabilityStats)


def crash_resume_build(build_fn, schedules,
                       max_attempts: int = 50) -> CrashRun:
    """Run ``build_fn`` under successive kill schedules until it survives.

    ``build_fn(resume)`` performs one build attempt (``resume`` is
    False on the first attempt, True afterwards) and returns the build.
    ``schedules`` is a sequence of ``{site: fatal_hit}`` dicts, one
    armed per attempt in order; once exhausted, attempts run with no
    injection, so the loop always converges — a schedule can only kill
    a process a finite number of times, like real crashes.
    """
    run = CrashRun(build=None, stats=DurabilityStats())
    queue = list(schedules)
    while True:
        run.attempts += 1
        if run.attempts > max_attempts:
            raise RuntimeError(
                f"crash/resume did not converge in {max_attempts} attempts"
            )
        schedule = queue.pop(0) if queue else None
        if schedule:
            install_kill_switch(schedule, stats=run.stats)
        try:
            run.build = build_fn(resume=run.attempts > 1)
            return run
        except SimulatedCrash as crash:
            run.crashes.append((crash.site, crash.hit))
        finally:
            clear_kill_switch()


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def dir_digest(directory: str | Path,
               ignore: tuple[str, ...] = ()) -> dict[str, str]:
    """Relative path -> content hash for every file under a directory.

    Two builds are byte-identical iff their digests are equal; the
    journal itself is passed via ``ignore`` when comparing a resumed
    build against an unjournaled control.
    """
    root = Path(directory)
    digests: dict[str, str] = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        relative = path.relative_to(root).as_posix()
        if any(relative.startswith(prefix) for prefix in ignore):
            continue
        digests[relative] = file_digest(path)
    return digests
