"""Tests for the radio energy model, scenario aggregation and energy gauges."""

from __future__ import annotations

import pytest

from repro.core.engine import Simulator
from repro.metrics import MetricsRegistry
from repro.phy.channel import WirelessChannel
from repro.phy.energy import (
    EnergyModel,
    EnergyReport,
    install_energy_probes,
    scenario_energy,
    set_energy_values,
)
from repro.phy.propagation import Position
from repro.phy.radio import Radio, RadioStats
from repro.net.packet import Packet


class TestEnergyModel:
    def test_default_powers_ordered(self):
        model = EnergyModel()
        assert model.tx_power > model.rx_power > model.idle_power > 0

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel(tx_power=-1.0)

    def test_idle_only_node(self):
        model = EnergyModel(tx_power=2.0, rx_power=1.0, idle_power=0.5)
        assert model.node_energy(elapsed=10.0, time_transmitting=0.0,
                                 time_receiving=0.0) == pytest.approx(5.0)

    def test_mixed_airtime(self):
        model = EnergyModel(tx_power=2.0, rx_power=1.0, idle_power=0.5)
        energy = model.node_energy(elapsed=10.0, time_transmitting=2.0, time_receiving=3.0)
        assert energy == pytest.approx(2 * 2.0 + 3 * 1.0 + 5 * 0.5)

    def test_zero_elapsed_is_zero(self):
        assert EnergyModel().node_energy(0.0, 1.0, 1.0) == 0.0

    def test_airtime_clamped_to_elapsed(self):
        model = EnergyModel(tx_power=2.0, rx_power=1.0, idle_power=0.5)
        # tx + rx exceed the elapsed time: no negative idle contribution.
        energy = model.node_energy(elapsed=5.0, time_transmitting=4.0, time_receiving=4.0)
        assert energy == pytest.approx(4 * 2.0 + 1 * 1.0)

    def test_transmitting_costs_more_than_idling(self):
        model = EnergyModel()
        busy = model.node_energy(10.0, 5.0, 0.0)
        idle = model.node_energy(10.0, 0.0, 0.0)
        assert busy > idle


class TestEnergyReport:
    def test_joules_per_kilobyte(self):
        report = EnergyReport(total_joules=50.0, transmit_joules=10.0,
                              delivered_kilobytes=25.0)
        assert report.joules_per_kilobyte == pytest.approx(2.0)
        assert report.transmit_joules_per_kilobyte == pytest.approx(0.4)

    def test_zero_delivery_guard(self):
        report = EnergyReport(total_joules=50.0, transmit_joules=10.0,
                              delivered_kilobytes=0.0)
        assert report.joules_per_kilobyte == 0.0
        assert report.transmit_joules_per_kilobyte == 0.0


class TestScenarioEnergy:
    def test_aggregates_over_radios(self):
        model = EnergyModel(tx_power=2.0, rx_power=1.0, idle_power=0.5)
        airtimes = [
            {"time_transmitting": 1.0, "time_receiving": 2.0},
            {"time_transmitting": 0.0, "time_receiving": 0.0},
        ]
        report = scenario_energy(model, elapsed=10.0, radio_airtimes=airtimes,
                                 delivered_bytes=10_000)
        expected_node0 = 1 * 2.0 + 2 * 1.0 + 7 * 0.5
        expected_node1 = 10 * 0.5
        assert report.total_joules == pytest.approx(expected_node0 + expected_node1)
        assert report.transmit_joules == pytest.approx(2.0)
        assert report.delivered_kilobytes == pytest.approx(10.0)

    def test_scenario_result_carries_energy(self):
        from repro.experiments.config import ScenarioConfig
        from repro.experiments.runner import Scenario
        from repro.experiments.workload import ScenarioSpec
        from repro.topology.chain import chain_topology

        result = Scenario(ScenarioSpec(
            topology=chain_topology(hops=2),
            config=ScenarioConfig(variant="vegas",
                                  packet_target=40, max_sim_time=30.0),
        )).run()
        assert result.energy is not None
        assert result.energy.total_joules > 0
        assert result.energy.transmit_joules > 0
        assert result.energy.joules_per_kilobyte > 0
        # Transmit energy is a small fraction of total (radios mostly listen).
        assert result.energy.transmit_joules < result.energy.total_joules
        # The per-node end-of-run gauges land in the metrics snapshot and sum
        # to the reported total.
        assert result.metric_total("phy.node*.energy_joules") == pytest.approx(
            result.energy.total_joules)
        assert result.metrics["phy.energy_total_joules"] == pytest.approx(
            result.energy.total_joules)


class TestRadioTransitionAccounting:
    """Energy accounting driven through actual radio tx/rx/idle transitions."""

    def _radios(self, sim, *xs):
        """One radio per x coordinate (metres), all on one channel."""
        channel = WirelessChannel(sim)
        radios = [Radio(sim, node_id=index, channel=channel)
                  for index in range(len(xs))]
        for radio, x in zip(radios, xs):
            channel.register(radio, Position(x, 0))
        return radios

    def _radio(self, sim):
        return self._radios(sim, 0)[0]

    def test_airtime_accumulates_across_transitions(self):
        sim = Simulator()
        radio, peer = self._radios(sim, 0, 200)
        # transmit 2 ms, idle until t=0.01, receive 3 ms, idle again.
        radio.transmit(Packet(payload_size=100), duration=0.002)
        sim.run()
        sim.schedule(0.008, peer.transmit, Packet(), 0.003)
        sim.run()
        assert radio.stats.time_transmitting == pytest.approx(0.002)
        assert radio.stats.time_receiving == pytest.approx(0.003)

        model = EnergyModel(tx_power=2.0, rx_power=1.0, idle_power=0.5)
        elapsed = sim.now
        energy = model.node_energy(elapsed, radio.stats.time_transmitting,
                                   radio.stats.time_receiving)
        expected = 0.002 * 2.0 + 0.003 * 1.0 + (elapsed - 0.005) * 0.5
        assert energy == pytest.approx(expected)

    def test_overheard_frames_count_as_receive_time(self):
        sim = Simulator()
        radio, sensed_only = self._radios(sim, 0, 400)
        # A locked but undecodable (out-of-range) signal still burns rx power.
        sensed_only.transmit(Packet(), duration=0.004)
        sim.run()
        assert radio.stats.frames_below_threshold == 1
        assert radio.stats.time_receiving == pytest.approx(0.004)

    def test_back_to_back_transmissions_accumulate(self):
        sim = Simulator()
        radio = self._radio(sim)
        radio.transmit(Packet(), duration=0.001)
        sim.run()
        radio.transmit(Packet(), duration=0.002)
        sim.run()
        assert radio.stats.time_transmitting == pytest.approx(0.003)


class TestEnergyMetrics:
    def _stats(self, registry, node_id, tx, rx):
        stats = RadioStats(registry, prefix=f"phy.node{node_id}")
        stats.time_transmitting, stats.time_receiving = tx, rx
        return stats

    def test_set_energy_values(self):
        registry = MetricsRegistry()
        model = EnergyModel(tx_power=2.0, rx_power=1.0, idle_power=0.5)
        radio_stats = {
            0: self._stats(registry, 0, tx=1.0, rx=2.0),
            1: self._stats(registry, 1, tx=0.0, rx=0.0),
        }
        total = set_energy_values(registry, model, elapsed=10.0,
                                  radio_stats=radio_stats)
        node0 = 1 * 2.0 + 2 * 1.0 + 7 * 0.5
        node1 = 10 * 0.5
        snapshot = registry.snapshot()
        assert snapshot["phy.node0.energy_joules"] == pytest.approx(node0)
        assert snapshot["phy.node1.energy_joules"] == pytest.approx(node1)
        assert snapshot["phy.energy_total_joules"] == pytest.approx(total)
        assert total == pytest.approx(node0 + node1)

    def _radios(self, sim, registry, *xs):
        channel = WirelessChannel(sim)
        radios = {}
        for node_id, x in enumerate(xs):
            radios[node_id] = Radio(sim, node_id, channel, metrics=registry)
            channel.register(radios[node_id], Position(x, 0))
        return radios

    def test_install_energy_probes_samples_over_time(self):
        sim = Simulator()
        registry = MetricsRegistry(enabled=True)
        model = EnergyModel(tx_power=2.0, rx_power=1.0, idle_power=0.5)
        install_energy_probes(registry, model, sim, self._radios(sim, registry, 0))
        registry.start_sampling(sim, interval=1.0)
        sim.run(until=2.5)
        series = registry.timeseries_data()["phy.node0.energy"]
        # Idle-only node: energy grows linearly with idle power.
        assert series["values"] == pytest.approx([0.0, 0.5, 1.0])

    def test_energy_probes_settle_owed_ends_first(self):
        """An overheard frame's end is owed to a radio whose listener is not
        watching the carrier; the probe still counts its receive time."""
        sim = Simulator()
        registry = MetricsRegistry(enabled=True)
        model = EnergyModel(tx_power=2.0, rx_power=1.0, idle_power=0.5)
        radios = self._radios(sim, registry, 0, 400)
        radios[0].notify_carrier = False
        install_energy_probes(registry, model, sim, {0: radios[0]})
        registry.start_sampling(sim, interval=1.0)
        radios[1].transmit(Packet(), duration=0.004)
        sim.run(until=1.5)
        series = registry.timeseries_data()["phy.node0.energy"]
        assert series["values"] == pytest.approx([0.0, 0.004 * 1.0 + 0.996 * 0.5])

    def test_install_energy_probes_noop_when_disabled(self):
        sim = Simulator()
        registry = MetricsRegistry(enabled=False)
        install_energy_probes(registry, EnergyModel(), sim,
                              self._radios(sim, registry, 0))
        assert registry.timeseries_data() == {}
