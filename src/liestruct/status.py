"""Certification statuses attached to computed structural results."""

from __future__ import annotations

from collections import namedtuple


class Status(namedtuple("Status", "level reason", defaults=("",))):
    __slots__ = ()
    level: str  # "certified" | "heuristic" | "undecided"
    reason: str

    @property
    def certified(self) -> bool:
        return self.level == "certified"

    def __str__(self):
        return self.level if not self.reason else f"{self.level} ({self.reason})"


CERTIFIED = Status("certified")


def heuristic(reason: str) -> Status:
    return Status("heuristic", reason)


def undecided(reason: str) -> Status:
    return Status("undecided", reason)


_RANK = {"certified": 0, "heuristic": 1, "undecided": 2}


def worst(*statuses: Status) -> Status:
    return max(statuses, key=lambda s: _RANK[s.level])


class CertificationFailure(RuntimeError):
    """A hard postcondition that the theory guarantees has failed; this
    signals a bug or an input outside the supported hypotheses."""

