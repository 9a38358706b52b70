"""IEEE 802.11 MAC layer: DCF state machine, timing, frames, interface queue."""

from repro.mac.frames import attach_data_header, is_for, make_ack, make_cts, make_rts
from repro.mac.ieee80211 import Ieee80211Mac, MacState
from repro.mac.queue import DropTailQueue
from repro.mac.stats import MacStats
from repro.mac.timing import MacTiming, timing_for_bandwidth

__all__ = [
    "attach_data_header",
    "is_for",
    "make_ack",
    "make_cts",
    "make_rts",
    "Ieee80211Mac",
    "MacState",
    "DropTailQueue",
    "MacStats",
    "MacTiming",
    "timing_for_bandwidth",
]
