#pragma once
// Registration hooks for the built-in routing policies. Each policy lives in
// its own translation unit under src/net/routers/ and exposes one function
// that adds it to the registry. RoutingRegistry::instance() calls these
// explicitly on first use — explicit calls instead of static registrar
// objects because the linker is free to drop unreferenced object files from
// a static library, which would silently lose policies.

#include "net/routing.hpp"

namespace wrsn {

// Dijkstra shortest-path tree rooted at the base station (the paper's
// routing model and the default).
void register_shortest_path_router(RoutingRegistry& registry);

// Greedy geographic forwarding with a perimeter-style fallback that routes
// around voids by attaching stuck nodes to already-connected neighbors.
void register_greedy_geo_router(RoutingRegistry& registry);

// Minimum spanning tree backbone: minimizes total link length instead of
// per-node path length, concentrating relay load on trunk nodes.
void register_mst_backbone_router(RoutingRegistry& registry);

// Cluster-head backbone in the spirit of pivot cluster heads: a greedy
// dominating set of heads carries inter-cluster traffic; members uplink to
// their head.
void register_cluster_backbone_router(RoutingRegistry& registry);

}  // namespace wrsn
