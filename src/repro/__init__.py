"""repro — a full reimplementation of NetFence (SIGCOMM 2010).

NetFence places the network at the first line of DoS defense: bottleneck
routers stamp *secure congestion policing feedback* into packets, access
routers validate it and police every sender with per-(sender, bottleneck)
rate limiters, and victims can withhold the feedback to suppress unwanted
traffic entirely.

Package map (the "Architecture map" section of README.md lists every
subpackage, including the live runtime, telemetry, store and linter):

* :mod:`repro.simulator` — packet-level discrete-event simulator substrate.
* :mod:`repro.transport` — TCP (Reno-style), UDP/on-off attack sources, and
  application workloads.
* :mod:`repro.crypto`, :mod:`repro.passport` — MAC / key / source
  authentication substrates.
* :mod:`repro.core` — the NetFence architecture itself.
* :mod:`repro.baselines` — TVA+, StopIt, and per-sender fair queuing.
* :mod:`repro.analysis` — fairness metrics and the Appendix A fluid model.
* :mod:`repro.experiments` — one module per figure/table of the evaluation.
"""

from repro.core import (
    Feedback,
    FeedbackAction,
    FeedbackMode,
    NetFenceAccessRouter,
    NetFenceEndHost,
    NetFenceHeader,
    NetFenceParams,
    NetFenceRouter,
    RegularRateLimiter,
    RequestRateLimiter,
    ReturnPolicy,
)
from repro.simulator import Simulator, Topology

__version__ = "1.0.0"

__all__ = [
    "Feedback",
    "FeedbackAction",
    "FeedbackMode",
    "NetFenceAccessRouter",
    "NetFenceEndHost",
    "NetFenceHeader",
    "NetFenceParams",
    "NetFenceRouter",
    "RegularRateLimiter",
    "RequestRateLimiter",
    "ReturnPolicy",
    "Simulator",
    "Topology",
    "__version__",
]
