import copy
import json

import pytest

from ocsim import attack
from ocsim.attack import InvalidAttackConfig, tamper
from ocsim.model import AttackConfig


def _update_content(sender="evil"):
    # the wire form negotiation.encode_memory writes: values are tuples
    return {
        "entries": {
            sender: {"values": (1.0, 1.0, 1.0, 1.0), "revision": 2},
            "a01": {"values": (-2.0, -2.0, -2.0, -2.0), "revision": 1},
        },
        "best": {
            "assignment": {sender: (1.0, 1.0, 1.0, 1.0),
                           "a01": (-2.0, -2.0, -2.0, -2.0)},
            "objective": 4.0,
            "stamp": (3, sender),
        },
    }


def test_scale_transforms_only_the_senders_own_values():
    out = tamper(_update_content(), "evil", AttackConfig(mode="Scale", scale_factor=3.0,
                                                         active_from_interval=20),
                 current_interval=25)
    assert out["entries"]["evil"]["values"] == (3.0,) * 4
    assert out["best"]["assignment"]["evil"] == (3.0,) * 4
    # everyone else's view of the world passes through untouched
    assert out["entries"]["a01"]["values"] == (-2.0,) * 4
    assert out["best"]["assignment"]["a01"] == (-2.0,) * 4


def test_offset_and_replace_modes():
    out = tamper(_update_content(), "evil",
                 AttackConfig(mode="Offset", offset_kw=1.5, active_from_interval=0),
                 current_interval=0)
    assert out["entries"]["evil"]["values"] == (2.5,) * 4
    out = tamper(_update_content(), "evil",
                 AttackConfig(mode="Replace", replacement=[9.0, 9.0, 9.0, 9.0],
                              active_from_interval=0),
                 current_interval=0)
    assert out["entries"]["evil"]["values"] == (9.0,) * 4


def test_falsified_values_are_tuples_that_serialize_as_lists():
    for config in (AttackConfig(mode="Scale", scale_factor=3.0, active_from_interval=0),
                   AttackConfig(mode="Offset", offset_kw=1.5, active_from_interval=0),
                   AttackConfig(mode="Replace", replacement=[9.0] * 4, active_from_interval=0)):
        out = tamper(_update_content(), "evil", config, current_interval=0)
        for values in (out["entries"]["evil"]["values"],
                       out["best"]["assignment"]["evil"]):
            assert type(values) is tuple
            assert json.dumps(values) == json.dumps(list(values))


def test_inactive_before_the_incident_interval():
    content = _update_content()
    out = tamper(content, "evil", AttackConfig(mode="Scale", scale_factor=3.0,
                                               active_from_interval=20), current_interval=19)
    assert out is content  # pass-through, not even a copy


def test_the_senders_internal_state_is_untouched():
    """Only the wire view lies: the sent content must not mutate."""
    content = _update_content()
    before = copy.deepcopy(content)
    out = tamper(content, "evil", AttackConfig(active_from_interval=0), current_interval=30)
    assert out is not content
    assert content == before


def test_revision_numbers_survive_tampering():
    out = tamper(_update_content(), "evil", AttackConfig(active_from_interval=0),
                 current_interval=30)
    assert out["entries"]["evil"]["revision"] == 2


def test_invalid_configs_raise():
    with pytest.raises(InvalidAttackConfig):
        tamper(_update_content(), "evil", AttackConfig(mode="Replace", replacement=None,
                                                       active_from_interval=0),
               current_interval=30)
    with pytest.raises(InvalidAttackConfig):
        attack._transform([1.0], AttackConfig(mode="Wormhole"))
