"""The MAC keeps ``Radio.notify_carrier`` on exactly while it is in channel
access: a carrier callback matters in every access phase but ``INACTIVE`` and
in no other state, so the radio may skip the call precisely then.
"""

from __future__ import annotations

import pytest

from repro.core.tracing import NULL_TRACER
from repro.mac.ieee80211 import _AccessPhase
from repro.net.packet import reset_packet_ids
from repro.phy.radio import Radio

from tests.mac.test_ieee80211 import MacTestbed
from tests.regression.test_golden_traces import SCENARIOS


@pytest.mark.parametrize("name", ["random50-vegas-2mbps", "mobile-chain7-rwp-vegas-2mbps"])
def test_flag_is_on_exactly_during_channel_access(name, monkeypatch):
    """Checked at every signal start of two golden runs with AODV repairs."""
    signal_start = Radio.signal_start
    seen = {True: 0, False: 0}

    def checked_signal_start(radio, *args):
        mac = radio.listener
        in_access = mac._access_phase is not _AccessPhase.INACTIVE
        assert radio.notify_carrier == in_access, (radio.node_id, mac._access_phase)
        seen[in_access] += 1
        return signal_start(radio, *args)

    monkeypatch.setattr(Radio, "signal_start", checked_signal_start)
    reset_packet_ids()
    SCENARIOS[name](NULL_TRACER).run()
    assert seen[True] > 1000 and seen[False] > 1000


def test_a_stale_difs_event_switches_the_flag_on_with_the_phase(sim):
    """``_finish_current`` leaves a pending DIFS event in the queue when a
    listener enqueues from its callback (AODV's RERR on a link failure); it
    then finds the MAC ``INACTIVE`` and starts a back-off that a busy carrier
    must still be able to pause — random120 at seed 3 does this three times.
    """
    bed = MacTestbed(sim, {0: (0, 0), 1: (200, 0)})
    mac = bed.macs[0]
    assert not mac.radio.notify_carrier
    mac._difs_complete()
    assert mac._access_phase is _AccessPhase.BACKOFF and mac.radio.notify_carrier
    sim.run(until=1.0)
    assert mac._access_phase is _AccessPhase.INACTIVE and not mac.radio.notify_carrier
