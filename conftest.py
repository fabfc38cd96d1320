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
"""

from __future__ import annotations

import os
import signal

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


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    tier = next((name for name in _HARD_TIMEOUT_TIERS
                 if item.get_closest_marker(name) is not None), None)
    if tier is None or not hasattr(signal, "SIGALRM"):
        yield
        return
    env_var, default_s = _HARD_TIMEOUT_TIERS[tier]
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
