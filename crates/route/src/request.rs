//! Connection requests: what the router is asked to connect.

use fpga::{Placement, Routing, RoutingGraph};
use netlist::{NetId, Netlist, NetlistError};

use crate::pathfinder::{route, RouteError, RouteOptions, RouteStats};

/// One net's routing problem: a source node and sink nodes.
///
/// For ordinary nets these are the driver's output pin and every
/// sink's input pin. The tiling flow also builds *partial* requests
/// whose source or sinks are locked interface wire nodes on a tile
/// boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectionRequest {
    /// The net being routed (keys the route database entry).
    pub net: NetId,
    /// Start node (output pin, pad, or interface wire).
    pub source: fpga::NodeId,
    /// Target nodes (input pins, pads, or interface wires).
    pub sinks: Vec<fpga::NodeId>,
}

/// Builds full connection requests for every routable net of a placed
/// design.
///
/// Nets are routable when their driver and at least one sink are
/// placed; unplaced sinks are skipped (they belong to cleared tiles and
/// get their own partial requests from the tiling flow).
///
/// # Errors
///
/// Propagates netlist lookup failures.
pub fn derive_requests(
    nl: &Netlist,
    placement: &Placement,
    rrg: &RoutingGraph,
) -> Result<Vec<ConnectionRequest>, NetlistError> {
    let mut out = Vec::new();
    for (net_id, net) in nl.nets() {
        let Some(driver) = net.driver else { continue };
        let Some(src_loc) = placement.loc_of(driver) else {
            continue;
        };
        let source = rrg.source_node(src_loc);
        let mut sinks = Vec::with_capacity(net.sinks.len());
        for s in &net.sinks {
            let Some(sink_loc) = placement.loc_of(s.cell) else {
                continue;
            };
            sinks.push(rrg.sink_node(sink_loc, s.pin));
        }
        if sinks.is_empty() {
            continue;
        }
        out.push(ConnectionRequest {
            net: net_id,
            source,
            sinks,
        });
    }
    Ok(out)
}

/// Convenience: derive requests from a placement and route them all.
///
/// # Errors
///
/// Returns [`RouteError`] on congestion failure, or panics never; the
/// netlist error is wrapped into [`RouteError::BadRequest`].
pub fn route_design(
    nl: &Netlist,
    placement: &Placement,
    rrg: &RoutingGraph,
    routing: &mut Routing,
    options: &RouteOptions,
) -> Result<RouteStats, RouteError> {
    let requests =
        derive_requests(nl, placement, rrg).map_err(|e| RouteError::BadRequest(e.to_string()))?;
    route(rrg, &requests, routing, options)
}

/// Rewrites every given net's route tree as one contiguous
/// source-pin → sink-pin path per netlist sink, in sink order.
///
/// PathFinder stores branch paths rooted anywhere on the growing tree,
/// which makes per-sink delay extraction undercount shared prefixes;
/// normalized trees make `RouteTree::sink_delay(k)` exact. Nets that
/// cannot be fully traced (unplaced sinks, partial trees) are left
/// untouched. Occupancy is preserved or reduced (dead branches are
/// pruned).
pub fn normalize_routes(
    nl: &Netlist,
    placement: &Placement,
    rrg: &RoutingGraph,
    routing: &mut Routing,
    nets: impl IntoIterator<Item = NetId>,
) {
    for net_id in nets {
        let Ok(net) = nl.net(net_id) else { continue };
        let Some(driver) = net.driver else { continue };
        let Some(driver_loc) = placement.loc_of(driver) else {
            continue;
        };
        let source = rrg.source_node(driver_loc);
        let Some(tree) = routing.route(net_id) else {
            continue;
        };
        let mut pred: fpga::FxHashMap<fpga::NodeId, fpga::NodeId> = fpga::FxHashMap::default();
        for path in &tree.paths {
            for w in path.windows(2) {
                pred.entry(w[1]).or_insert(w[0]);
            }
        }
        let bound = tree.nodes().len() + 1;
        let mut new_paths = Vec::with_capacity(net.sinks.len());
        let mut ok = true;
        for s in &net.sinks {
            let Some(loc) = placement.loc_of(s.cell) else {
                ok = false;
                break;
            };
            let pin = rrg.sink_node(loc, s.pin);
            let mut path = vec![pin];
            let mut cur = pin;
            let mut hops = 0;
            while cur != source {
                let Some(&p) = pred.get(&cur) else {
                    ok = false;
                    break;
                };
                path.push(p);
                cur = p;
                hops += 1;
                if hops > bound {
                    ok = false;
                    break;
                }
            }
            if !ok {
                break;
            }
            path.reverse();
            new_paths.push(path);
        }
        if ok {
            routing.clear_route(net_id);
            routing.set_route(net_id, fpga::RouteTree { paths: new_paths });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga::{BelLoc, ClbSlot, Device};
    use netlist::TruthTable;

    #[test]
    fn derive_skips_unplaced() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let u = nl
            .add_lut("u", TruthTable::not(), &[nl.cell_output(a).unwrap()])
            .unwrap();
        nl.add_output("y", nl.cell_output(u).unwrap()).unwrap();
        let dev = Device::new(4, 4, 4, 2).unwrap();
        let rrg = RoutingGraph::new(&dev);
        let mut p = Placement::new(nl.cell_capacity());
        // Only a and u placed; y unplaced -> u's output net has no sinks.
        p.place(
            a,
            BelLoc::Iob(fpga::IobSite {
                side: fpga::IobSide::West,
                pos: 0,
                k: 0,
            }),
        )
        .unwrap();
        p.place(u, BelLoc::clb(1, 1, ClbSlot::LutF)).unwrap();
        let reqs = derive_requests(&nl, &p, &rrg).unwrap();
        assert_eq!(reqs.len(), 1); // only a -> u
        assert_eq!(reqs[0].sinks.len(), 1);
    }
}
