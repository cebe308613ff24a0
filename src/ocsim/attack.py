"""False-data-injection fault model.

From the configured incident interval on, the compromised agent falsifies
the power values of its own entry in each working-memory broadcast, once
per broadcast, so every receiver sees the same wire view. The agent's
internal state is never touched: only the wire view lies, so the
manipulation is invisible at information levels that cannot see message
content.
"""
from __future__ import annotations

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
    entries = content["entries"]
    if sender in entries:
        content["entries"] = {**entries, sender: {
            **entries[sender], "values": _transform(entries[sender]["values"], config)}}
    best = content["best"]
    if best is not None and sender in best["assignment"]:
        assignment = best["assignment"]
        content["best"] = {**best, "assignment": {
            **assignment, sender: _transform(assignment[sender], config)}}
    return content


def tamper(content: dict, sender, config: AttackConfig, current_interval: int) -> dict:
    """Return the wire view of a broadcast content of the compromised
    `sender`. Before the activation interval it is `content` itself;
    from it on, a copy with the sender's own values falsified. The input
    content is never mutated."""
    if current_interval < config.active_from_interval:
        return content
    return _falsify(content, sender, config)
