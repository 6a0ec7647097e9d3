import math

import pytest

from fadingcr.model import (ChannelParams, CodingParams, Config, ConfigError,
                            Degenerate, Discrete, PerStatePolicy, Rayleigh,
                            config_from_json, config_to_json)


def test_validate_reference_setup():
    Config(ChannelParams(Q=1.0, sigma_z2=1.0, P_avg=2.5), Rayleigh()).validate()


def test_validate_zero_power_degenerate_zero():
    Config(ChannelParams(Q=1.0, sigma_z2=1.0, P_avg=0.0), Degenerate(0.0)).validate()


def test_negative_q_reports_first_invariant():
    with pytest.raises(ConfigError, match="Q must be positive"):
        Config(ChannelParams(Q=-1.0, sigma_z2=1.0, P_avg=1.0), Rayleigh()).validate()


@pytest.mark.parametrize("channel,msg", [
    (ChannelParams(1.0, -2.0, 1.0), "sigma_z2"),
    (ChannelParams(1.0, 0.0, 1.0), "sigma_z2"),
    (ChannelParams(1.0, 1.0, -0.1), "P_avg"),
    (ChannelParams(math.nan, 1.0, 1.0), "Q"),
])
def test_channel_invariants(channel, msg):
    with pytest.raises(ConfigError, match=msg):
        channel.validate()


def test_discrete_invariants():
    Discrete(points=(0.5, 1.5), probs=(0.25, 0.75)).validate()
    with pytest.raises(ConfigError, match="sum to 1"):
        Discrete(points=(0.5, 1.5), probs=(0.3, 0.75)).validate()
    with pytest.raises(ConfigError, match="distinct"):
        Discrete(points=(1.0, 1.0), probs=(0.5, 0.5)).validate()
    with pytest.raises(ConfigError, match="nonnegative"):
        Discrete(points=(-1.0, 1.0), probs=(0.5, 0.5)).validate()


def test_coding_params_violations():
    ch = ChannelParams(1.0, 1.0, 2.5)
    assert CodingParams(0.9, 0.0, 0.9).violation(ch) is None
    assert "exceed 1" in CodingParams(0.9, 0.9, 0.9).violation(ch)
    assert "exceed Q" in CodingParams(0.0, 0.0, 1.5).violation(ch)
    assert "floor" in CodingParams(0.0, 0.0, 1e-12).violation(ch)
    # d = Q is admissible
    assert CodingParams(0.5, 0.5, 1.0).violation(ch) is None


def test_policy_validation():
    pol = PerStatePolicy((0.5, 1.5), (0.5, 0.5), (1.0, 2.0), (0.6, 0.0), (0.0, 0.8))
    pol.validate()
    with pytest.raises(ConfigError, match="length"):
        PerStatePolicy((0.5,), (1.0,), (1.0, 2.0), (0.0,), (0.0,)).validate()
    with pytest.raises(ConfigError, match="unit disk"):
        PerStatePolicy((0.5,), (1.0,), (1.0,), (0.9,), (0.9,)).validate()
    with pytest.raises(ConfigError, match="sum to 1"):
        PerStatePolicy((0.5,), (0.9,), (1.0,), (0.0,), (0.0,)).validate()


@pytest.mark.parametrize("cfg", [
    Config(ChannelParams(1.0, 1.0, 2.5)),
    Config(ChannelParams(2.0, 0.5, 0.0), Degenerate(1.25), 32, math.e),
    Config(ChannelParams(1.0, 1.0, 1.0), Discrete((0.25, 1.0, 2.0), (0.2, 0.5, 0.3))),
])
def test_config_json_round_trip_exact(cfg):
    back = config_from_json(config_to_json(cfg))
    assert back == cfg  # repr-based JSON floats round-trip exactly


def test_config_json_errors():
    with pytest.raises(ConfigError, match="missing required key"):
        config_from_json('{"Q": 1.0}')
    with pytest.raises(ConfigError, match="log_base"):
        config_from_json('{"Q":1,"sigma_z2":1,"P_avg":1,"log_base":10}')
    with pytest.raises(ConfigError, match="fading type"):
        config_from_json('{"Q":1,"sigma_z2":1,"P_avg":1,"fading":{"type":"nakagami"}}')
    with pytest.raises(ConfigError, match="not valid JSON"):
        config_from_json("{")
