"""Repo-wide pytest hooks.

The ``chaos`` tier kills, stalls and respawns shard worker processes;
the ``chaos_net`` tier drives real sockets, spawned node processes and
injected stalls; the ``chaos_disk`` tier drives real WAL files, router
restarts and injected disk faults.  A regression in any of them can
hang instead of fail.  Since the environment deliberately carries no
pytest-timeout plugin, a hard per-test wall-clock bound is enforced
here with ``SIGALRM``: a chaos-marked test that outlives the budget
raises ``TimeoutError`` inside the test call instead of wedging the
whole run.  Override the network and disk budgets with
``REPRO_CHAOS_NET_TIMEOUT_S`` and ``REPRO_CHAOS_DISK_TIMEOUT_S``.

Every other test under ``tests/`` gets the ``chaos`` tier's fixed bound
too: the unit suite spawns shard workers and node processes as well,
and its slowest test takes a few seconds.  ``benchmarks/`` and
``bench/`` stay unbounded — a paper table legitimately trains for
minutes.
"""

from __future__ import annotations

import os
import signal
from pathlib import Path

import pytest

DEFAULT_CHAOS_NET_TIMEOUT_S = 120.0
DEFAULT_CHAOS_DISK_TIMEOUT_S = 120.0

#: marker name -> (environment override or None, default budget in seconds)
_HARD_TIMEOUT_TIERS = {
    # Fixed: the slowest tests/test_resilience.py case takes ~12 s.
    "chaos": (None, 120.0),
    "chaos_net": ("REPRO_CHAOS_NET_TIMEOUT_S", DEFAULT_CHAOS_NET_TIMEOUT_S),
    "chaos_disk": ("REPRO_CHAOS_DISK_TIMEOUT_S", DEFAULT_CHAOS_DISK_TIMEOUT_S),
}


def _hard_timeout(item) -> tuple[str, str | None, float] | None:
    """``(tier, environment override or None, budget)`` of ``item``,
    or ``None`` when it runs unbounded."""
    for tier, (env_var, default_s) in _HARD_TIMEOUT_TIERS.items():
        if item.get_closest_marker(tier) is not None:
            return tier, env_var, default_s
    if Path(__file__).parent / "tests" in item.path.parents:
        return ("unit", *_HARD_TIMEOUT_TIERS["chaos"])
    return None


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    bound = _hard_timeout(item)
    if bound is None or not hasattr(signal, "SIGALRM"):
        yield
        return
    tier, env_var, default_s = bound
    timeout_s = float(os.environ.get(env_var, default_s)) if env_var else default_s
    hint = f" (set {env_var} to change)" if env_var else ""

    def _on_alarm(signum, frame):
        raise TimeoutError(
            f"{item.nodeid} exceeded the {tier} hard timeout of "
            f"{timeout_s:.0f}s{hint}")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
