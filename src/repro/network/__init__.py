"""Road-network substrate: graph, generators, routing, embeddings."""

from .distances import DirectedNodeDistance, NetworkDistance
from .generators import CityConfig, generate_city
from .io import load_network, read_edge_list, save_network, write_edge_list
from .node2vec import Node2VecConfig, generate_walks, train_node2vec
from .road_network import RoadNetwork, Segment
from .routing import DARoutePlanner, TransitionStatistics
from .shortest_path import concatenate_routes, dijkstra

__all__ = [
    "RoadNetwork", "Segment", "CityConfig", "generate_city",
    "dijkstra", "concatenate_routes",
    "DARoutePlanner", "TransitionStatistics", "NetworkDistance",
    "DirectedNodeDistance",
    "Node2VecConfig", "train_node2vec", "generate_walks",
    "save_network", "load_network", "read_edge_list", "write_edge_list",
]
