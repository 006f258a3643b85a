"""The six workloads, by the names ``BENCHMARK.json`` lists them under."""

from bench.workloads.gossip import GossipSim
from bench.workloads.hub import DurableHub, HubBoard
from bench.workloads.tc import TcChurn
from bench.workloads.wepic import LossyMesh, WepicFanout

WORKLOADS = {cls.name: cls for cls in (WepicFanout, LossyMesh, HubBoard, DurableHub,
                                       TcChurn, GossipSim)}
