"""Radio energy accounting.

The paper argues that TCP Vegas' drastically reduced retransmission count
"directly translates in a reduction of power consumption, which is a critical
factor for resource constrained mobile devices", but reports energy only via
that proxy.  This module makes the proxy concrete with the standard ns-2-style
linear energy model: a radio drains ``tx_power`` watts while transmitting,
``rx_power`` while receiving or overhearing, and ``idle_power`` otherwise.
Default constants follow the widely used measurements for 802.11 WaveLAN-style
cards (≈1.4 W transmit, ≈1.0 W receive, ≈0.83 W idle).

The per-node airtime inputs come from :class:`repro.phy.radio.RadioStats`; the
experiment harness aggregates them into joules per node and joules per
delivered kilobyte, which is the number that lets the paper's qualitative
claim be checked quantitatively (the ``energy-proxy`` row of
``benchmarks/bench_figures.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.engine import Simulator
    from repro.phy.radio import Radio, RadioStats


@dataclass(frozen=True)
class EnergyModel:
    """Linear radio power model.

    Attributes:
        tx_power: Power drawn while transmitting (watts).
        rx_power: Power drawn while receiving or overhearing (watts).
        idle_power: Power drawn while idle and listening (watts).
    """

    tx_power: float = 1.4
    rx_power: float = 1.0
    idle_power: float = 0.83

    def __post_init__(self) -> None:
        for name, value in (("tx_power", self.tx_power), ("rx_power", self.rx_power),
                            ("idle_power", self.idle_power)):
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")

    def node_energy(self, elapsed: float, time_transmitting: float,
                    time_receiving: float) -> float:
        """Energy in joules consumed by one radio over ``elapsed`` seconds.

        Args:
            elapsed: Total simulated time the radio existed.
            time_transmitting: Seconds spent transmitting.
            time_receiving: Seconds spent receiving/overhearing signals.

        Returns:
            Energy in joules; transmit and receive time are clamped into the
            elapsed interval so rounding at the end of a run cannot produce a
            negative idle share.
        """
        if elapsed <= 0:
            return 0.0
        tx_time = min(max(time_transmitting, 0.0), elapsed)
        rx_time = min(max(time_receiving, 0.0), elapsed - tx_time)
        idle_time = elapsed - tx_time - rx_time
        return (
            tx_time * self.tx_power
            + rx_time * self.rx_power
            + idle_time * self.idle_power
        )


@dataclass(frozen=True)
class EnergyReport:
    """Aggregated energy figures for one scenario run."""

    total_joules: float
    transmit_joules: float
    delivered_kilobytes: float

    @property
    def joules_per_kilobyte(self) -> float:
        """Total energy per delivered kilobyte (∞-safe: 0 when nothing delivered)."""
        if self.delivered_kilobytes <= 0:
            return 0.0
        return self.total_joules / self.delivered_kilobytes

    @property
    def transmit_joules_per_kilobyte(self) -> float:
        """Transmit-only energy per delivered kilobyte."""
        if self.delivered_kilobytes <= 0:
            return 0.0
        return self.transmit_joules / self.delivered_kilobytes

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return {"total_joules": self.total_joules,
                "transmit_joules": self.transmit_joules,
                "delivered_kilobytes": self.delivered_kilobytes}

    @classmethod
    def from_dict(cls, data: dict) -> "EnergyReport":
        """Rebuild from :meth:`to_dict` output."""
        return cls(total_joules=data["total_joules"],
                   transmit_joules=data["transmit_joules"],
                   delivered_kilobytes=data["delivered_kilobytes"])


def scenario_energy(
    model: EnergyModel,
    elapsed: float,
    radio_airtimes: Iterable[Mapping[str, float]],
    delivered_bytes: float,
) -> EnergyReport:
    """Aggregate an :class:`EnergyReport` over all radios of a scenario.

    Args:
        model: The power model.
        elapsed: Simulated time of the run.
        radio_airtimes: One mapping per radio with keys ``time_transmitting``
            and ``time_receiving`` (seconds).
        delivered_bytes: Application bytes delivered across all flows.
    """
    total = 0.0
    transmit = 0.0
    for airtime in radio_airtimes:
        tx_time = float(airtime.get("time_transmitting", 0.0))
        rx_time = float(airtime.get("time_receiving", 0.0))
        total += model.node_energy(elapsed, tx_time, rx_time)
        transmit += min(max(tx_time, 0.0), elapsed) * model.tx_power
    return EnergyReport(
        total_joules=total,
        transmit_joules=transmit,
        delivered_kilobytes=delivered_bytes / 1000.0,
    )


# ======================================================================
# Metrics-plane integration
# ======================================================================
def install_energy_probes(
    registry: MetricsRegistry,
    model: EnergyModel,
    sim: "Simulator",
    radios: Mapping[int, "Radio"],
) -> None:
    """Register per-node cumulative-energy probes (``phy.node<N>.energy``).

    Each probe settles the radio and evaluates the linear power model against
    its cumulative airtimes at the moment it is sampled, giving an
    energy-vs-time series per node when the registry's periodic sampler is
    enabled.  No-op on a disabled registry.
    """
    for node_id, radio in sorted(radios.items()):
        def probe(radio=radio) -> float:
            radio.settle()
            stats = radio.stats
            return model.node_energy(sim.now, stats.time_transmitting,
                                     stats.time_receiving)
        registry.add_probe(f"phy.node{node_id}.energy", probe, unit="J",
                           description="Cumulative radio energy (linear model).")


def set_energy_values(
    registry: MetricsRegistry,
    model: EnergyModel,
    elapsed: float,
    radio_stats: Mapping[int, "RadioStats"],
) -> float:
    """Set the end-of-run ``phy.node<N>.energy_joules`` values (J).

    Returns the network-wide total, which is also published as
    ``phy.energy_total_joules``.
    """
    total = 0.0
    for node_id, stats in sorted(radio_stats.items()):
        joules = model.node_energy(elapsed, stats.time_transmitting,
                                   stats.time_receiving)
        registry.set(f"phy.node{node_id}.energy_joules", joules)
        total += joules
    registry.set("phy.energy_total_joules", total)
    return total
