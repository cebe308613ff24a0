"""False-data-injection fault model.

From the configured incident interval on, power values that belong to the
compromised sender's own entry in outgoing negotiation payloads are falsified
on the wire. The agent's internal state is never touched: only the wire view
lies, so the manipulation is invisible at information levels that cannot see
message content.
"""
from __future__ import annotations

import dataclasses

from .model import AttackConfig


class InvalidAttackConfig(ValueError):
    pass


def _transform(values, config: AttackConfig) -> tuple:
    # a tuple, like every value on the wire: candidate_key compares them
    if config.mode == "Scale":
        return tuple(v * config.scale_factor for v in values)
    if config.mode == "Offset":
        return tuple(v + config.offset_kw for v in values)
    if config.mode == "Replace":
        if config.replacement is None:
            raise InvalidAttackConfig("Replace mode requires a replacement schedule")
        return tuple(config.replacement)
    raise InvalidAttackConfig(f"unknown attack mode {config.mode!r}")


def _falsify(content: dict, sender, config: AttackConfig) -> dict:
    """Copy of `content` with the sender's own values transformed. The copy
    shares every part it does not falsify, which is safe because sent
    content is immutable."""
    content = dict(content)
    entries = content.get("entries", {})
    if sender in entries:
        content["entries"] = {**entries, sender: {
            **entries[sender], "values": _transform(entries[sender]["values"], config)}}
    best = content.get("best")
    if best is not None and sender in best.get("assignment", {}):
        assignment = best["assignment"]
        content["best"] = {**best, "assignment": {
            **assignment, sender: _transform(assignment[sender], config)}}
    return content


def tamper(message, config: AttackConfig, current_interval: int, falsified=None):
    """Return the wire view of a compromised agent's message.

    Metadata (ids, ticks, endpoints) is never altered; before the activation
    interval the message passes through unchanged. The input message and its
    content are never mutated. `falsified` is the falsified content already
    made for another message of the same broadcast (same content object);
    it is reused as is, so all receivers of a broadcast see one wire view.
    """
    if current_interval < config.active_from_interval:
        return message
    if message.kind != "WorkingMemoryUpdate":
        return message
    if falsified is None:
        falsified = _falsify(message.content, message.sender, config)
    return dataclasses.replace(message, content=falsified)
