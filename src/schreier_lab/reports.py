"""Verification reports with byte-stable JSON output.

A report collects named pass/fail checks plus JSON-safe result payloads.
The JSON rendering is deterministic given the same flags: keys are sorted,
all rationals arrive pre-formatted as strings, and the wall time is kept
out of it (it appears only in the text rendering, which is for humans).
"""

from __future__ import annotations

import json

from .budget import Record

SCHEMA_VERSION = 1

__all__ = ["SCHEMA_VERSION", "Report"]


class Check(Record):
    __slots__ = ("name", "ok", "detail")
    name: str
    ok: bool
    detail: str


class Report:
    """A command echo, its configuration, checks, and result payloads."""

    def __init__(self, command: str, config: dict | None = None):
        self.command = command
        self.config = dict(config or {})
        self.checks: list[Check] = []
        self.results: dict = {}
        self.wall_seconds: float | None = None

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append(Check(name, bool(ok), detail))
        return ok

    def result(self, key: str, value) -> None:
        self.results[key] = value

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "config": self.config,
            "ok": self.ok,
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                       for c in self.checks],
            "results": self.results,
        }

    def json_bytes(self) -> bytes:
        return (json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n").encode()

    def render_text(self) -> str:
        lines = [self.command]
        for key in sorted(self.config):
            lines.append(f"  {key} = {self.config[key]}")
        for c in self.checks:
            verdict = "PASS" if c.ok else "FAIL"
            suffix = f": {c.detail}" if c.detail else ""
            lines.append(f"{verdict} {c.name}{suffix}")
        if self.wall_seconds is not None:
            lines.append(f"wall time: {self.wall_seconds:.3f}s")
        lines.append("all checks passed" if self.ok else "SOME CHECKS FAILED")
        return "\n".join(lines) + "\n"
