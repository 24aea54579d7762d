"""Discrete-event cluster simulator.

This package is the reproduction's substitute for the paper's Cray XC40:
a deterministic event engine (:mod:`~repro.sim.engine`), FIFO serving
resources (:mod:`~repro.sim.resource`), a machine/network model
(:mod:`~repro.sim.machine`, :mod:`~repro.sim.cluster`) and run
statistics (:mod:`~repro.sim.trace`).  The runtime controllers in
:mod:`repro.runtimes` execute real task callbacks while charging *virtual*
time here, which is what the scaling benchmarks measure.
"""

from repro.sim.cluster import Cluster
from repro.sim.engine import Engine
from repro.sim.machine import SHAHEEN_II, MachineSpec
from repro.sim.resource import MultiResource, Resource
from repro.sim.trace import Stats

__all__ = [
    "Cluster",
    "Engine",
    "MachineSpec",
    "MultiResource",
    "Resource",
    "SHAHEEN_II",
    "Stats",
]
