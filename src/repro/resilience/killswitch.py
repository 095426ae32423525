"""Kill points: injected process death at named sites.

A :class:`KillSwitch` armed with :func:`install_kill_switch` ends the
"process" (raises :class:`SimulatedCrash`) at the Nth hit of a named
:func:`kill_point`.  The sites sit in the build pipeline, the
interpreter, the durability journal and the serve layer, so this
module imports nothing from the package: every layer may depend on it.
"""

from __future__ import annotations

import threading

#: The named sites where a :class:`KillSwitch` may end the process.
#: Each sits at a moment where naive persistence would lose or tear
#: state: right after a resource's extraction completes, between the
#: phases of an alignment round, between a transition's logged attempt
#: and its registry commit, and halfway through a journal append itself.
KILL_SITES = (
    "post-extraction-of-resource",
    "mid-alignment-round",
    "mid-transition-commit",
    "mid-journal-append",
    # Serve-layer sites (whole-worker death in sharded serving):
    # after a write commits but before its registry version publishes,
    # and mid-append of the shard's write-attempt log (torn half-line).
    "mid-publish",
    "mid-serve-wal-append",
)


class SimulatedCrash(BaseException):
    """An injected process death at a named kill site.

    Derives from :class:`BaseException` (like ``KeyboardInterrupt``)
    deliberately: a real ``kill -9`` is not retryable, so no resilience
    wrapper, quarantine handler, or ``except Exception`` anywhere in
    the pipeline may absorb it — it must unwind all the way out, the
    way death does.
    """

    def __init__(self, site: str, hit: int):
        super().__init__(
            f"simulated crash at kill point {site!r} (hit {hit})"
        )
        self.site = site
        self.hit = hit


class KillSwitch:
    """A seeded crash schedule: die at the Nth hit of each named site.

    ``schedule`` maps site name -> which hit of that site is fatal
    (1-based).  The switch fires at most once — after the "process"
    dies, later checks (cleanup paths, ``finally`` blocks) pass
    through, matching a real crash where nothing runs afterwards.
    Hit counting is thread-safe: extraction waves hit
    ``post-extraction-of-resource`` from worker threads.
    """

    def __init__(self, schedule: dict[str, int], stats=None):
        unknown = set(schedule) - set(KILL_SITES)
        if unknown:
            raise ValueError(
                f"unknown kill site(s) {sorted(unknown)}; "
                f"expected one of {list(KILL_SITES)}"
            )
        self.schedule = dict(schedule)
        if stats is None:
            self.stats = ()
        elif isinstance(stats, (list, tuple)):
            self.stats = tuple(stats)
        else:
            self.stats = (stats,)
        self.fired: tuple[str, int] | None = None
        self._hits: dict[str, int] = {}
        self._lock = threading.Lock()

    def check(self, site: str) -> None:
        with self._lock:
            hits = self._hits.get(site, 0) + 1
            self._hits[site] = hits
            if self.fired is not None or self.schedule.get(site) != hits:
                return
            self.fired = (site, hits)
            for sink in self.stats:
                sink.crashes_injected += 1
        raise SimulatedCrash(site, hits)

    def hits(self, site: str) -> int:
        with self._lock:
            return self._hits.get(site, 0)


_kill_switch: KillSwitch | None = None


def install_kill_switch(schedule: dict[str, int], stats=None) -> KillSwitch:
    """Arm a global crash schedule; returns the armed switch."""
    global _kill_switch
    switch = (
        schedule
        if isinstance(schedule, KillSwitch)
        else KillSwitch(schedule, stats=stats)
    )
    _kill_switch = switch
    return switch


def clear_kill_switch() -> None:
    """Disarm kill-point injection (always pair with install, in a
    ``finally``)."""
    global _kill_switch
    _kill_switch = None


def kill_point(site: str) -> None:
    """Declare a crashable site; dies here when a switch says so.

    Free when no switch is armed, so the sites stay in production code
    paths permanently rather than behind test-only shims.
    """
    switch = _kill_switch
    if switch is not None:
        switch.check(site)
