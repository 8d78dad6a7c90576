"""Test-only fault injection for campaign trials.

The chaos harness lets the supervisor test battery (and the CI chaos
smoke) subject *real* campaign workers to exactly the faults the
supervisor is built to survive: abrupt SIGKILLs, segfault-style exits,
hangs, process stalls (SIGSTOP), deterministic exceptions, and
SIGINT-style interrupts. Faults are injected at the top of
:func:`repro.experiments.runner.execute_trial`, right before the trial
body runs, so every recovery path downstream of the worker boundary is
exercised with the production dispatch/collect machinery.

Rules are installed either in-process via :func:`install` — inherited
by forked workers, including the supervisor's respawned ones — or
through the ``REPRO_CHAOS`` environment variable (a JSON list of rule
objects), which also reaches spawn-start-method workers and CLI
subprocesses::

    REPRO_CHAOS='[{"action": "kill", "match": {"gpus": 48}, "times": 1}]'

Production sweeps never pay for this: with no rules installed and the
environment variable unset, the injection hook is one global load plus
one ``dict`` lookup.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Mapping, Optional, Sequence, Tuple

#: Environment variable carrying a JSON list of rule objects.
ENV_VAR = "REPRO_CHAOS"

#: Supported fault kinds, in the order the docs describe them.
ACTIONS = (
    "kill",       # SIGKILL the worker process (crash mid-trial)
    "exit",       # abrupt os._exit (worker dies without a result)
    "hang",       # sleep `seconds` (trips the per-trial timeout)
    "stall",      # SIGSTOP the worker (heartbeats stop, process lives)
    "fail",       # raise ChaosError (a deterministic trial failure)
    "delay",      # sleep `seconds`, then run the trial normally
    "interrupt",  # raise KeyboardInterrupt (SIGINT mid-campaign)
)


class ChaosError(RuntimeError):
    """The deterministic failure raised by ``fail`` rules."""


@dataclass(frozen=True)
class ChaosRule:
    """One fault to inject into matching trial executions.

    Attributes:
        action: One of :data:`ACTIONS`.
        match: Parameter subset a trial must carry to be hit; the
            special key ``"index"`` matches the trial's position in the
            campaign instead of a parameter.
        times: Inject on the first ``times`` attempts of each matching
            trial (attempts are 0-based); negative means every attempt.
        seconds: Sleep length for ``hang``/``delay``.
        code: Exit status for ``exit``.
    """

    action: str
    match: Mapping[str, Any] = field(default_factory=dict)
    times: int = 1
    seconds: float = 3600.0
    code: int = 1

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown chaos action {self.action!r}; options: {ACTIONS}"
            )

    def matches(self, index: int, params: Mapping[str, Any],
                attempt: int) -> bool:
        if 0 <= self.times <= attempt:
            return False
        for key, value in self.match.items():
            if key == "index":
                if index != value:
                    return False
            elif params.get(key) != value:
                return False
        return True

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChaosRule":
        return cls(
            action=str(data["action"]),
            match=dict(data.get("match", {})),
            times=int(data.get("times", 1)),
            seconds=float(data.get("seconds", 3600.0)),
            code=int(data.get("code", 1)),
        )


# Installed rules (None = nothing installed in this process) and the
# parsed-environment cache keyed by the raw variable text.
_INSTALLED: Optional[Tuple[ChaosRule, ...]] = None
_ENV_CACHE: Tuple[Optional[str], Tuple[ChaosRule, ...]] = (None, ())


def install(rules: Iterable[ChaosRule]) -> None:
    """Activate ``rules`` in this process (and future forked workers)."""
    global _INSTALLED
    _INSTALLED = tuple(rules)


def uninstall() -> None:
    """Deactivate in-process rules (the environment still applies)."""
    global _INSTALLED
    _INSTALLED = None


def rules_to_json(rules: Sequence[ChaosRule]) -> str:
    """Serialize rules for the ``REPRO_CHAOS`` environment variable."""
    return json.dumps([asdict(rule) for rule in rules])


def rules_from_json(text: str) -> Tuple[ChaosRule, ...]:
    payload = json.loads(text)
    if not isinstance(payload, list):
        raise ValueError(f"{ENV_VAR} must hold a JSON list of rules")
    return tuple(ChaosRule.from_dict(item) for item in payload)


def active_rules() -> Tuple[ChaosRule, ...]:
    """Installed rules, or the (cached) parse of ``REPRO_CHAOS``."""
    global _ENV_CACHE
    if _INSTALLED is not None:
        return _INSTALLED
    text = os.environ.get(ENV_VAR)
    if not text:
        return ()
    if _ENV_CACHE[0] != text:
        _ENV_CACHE = (text, rules_from_json(text))
    return _ENV_CACHE[1]


def maybe_inject(index: int, params: Mapping[str, Any],
                 attempt: int) -> None:
    """Fire the first matching rule for this trial execution, if any.

    Called by ``execute_trial``; a no-op (one load + one lookup) when
    chaos is inactive.
    """
    if _INSTALLED is None and ENV_VAR not in os.environ:
        return
    for rule in active_rules():
        if rule.matches(index, params, attempt):
            _fire(rule)
            return


def _fire(rule: ChaosRule) -> None:
    if rule.action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif rule.action == "exit":
        os._exit(rule.code)
    elif rule.action == "stall":
        os.kill(os.getpid(), signal.SIGSTOP)
    elif rule.action == "hang":
        time.sleep(rule.seconds)
        raise ChaosError(
            f"chaos hang expired after {rule.seconds:.1f}s without being "
            f"killed"
        )
    elif rule.action == "delay":
        time.sleep(rule.seconds)
    elif rule.action == "interrupt":
        raise KeyboardInterrupt
    else:  # "fail"
        raise ChaosError("injected trial failure")


__all__ = [
    "ACTIONS",
    "ENV_VAR",
    "ChaosError",
    "ChaosRule",
    "active_rules",
    "install",
    "maybe_inject",
    "rules_from_json",
    "rules_to_json",
    "uninstall",
]
