"""Physical layer: propagation model, shared channel and per-node radios."""

from repro.phy.channel import ChannelStats, WirelessChannel
from repro.phy.energy import EnergyModel, EnergyReport, record_energy
from repro.phy.propagation import Position, RangePropagationModel, SPEED_OF_LIGHT
from repro.phy.radio import Radio, RadioStats

__all__ = [
    "ChannelStats",
    "WirelessChannel",
    "EnergyModel",
    "EnergyReport",
    "record_energy",
    "Position",
    "RangePropagationModel",
    "SPEED_OF_LIGHT",
    "Radio",
    "RadioStats",
]
