//! Negotiated-congestion routing (PathFinder) with locked resources.
//!
//! The router serves the tiling flow's two modes:
//!
//! * **full routing** — every net of a placed design is routed over the
//!   whole device (paper step 2 and the full re-route baseline);
//! * **tile-confined routing** — only the nets inside cleared tiles are
//!   re-routed. Nodes used by the rest of the design are *locked*
//!   (hard-unavailable), expansion is restricted to the tile
//!   rectangle, and nets crossing the tile boundary terminate on their
//!   locked *interface* wire nodes instead of their far-side pins.
//!   This is how "if one side of an interface is locked, the interface
//!   itself is locked" (§3.2) becomes operational.
//!
//! Routing effort is metered in wavefront *node expansions*, the
//! second component of Figure 5's CAD-effort speedups.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pathfinder;
pub mod request;

pub use pathfinder::{route, RouteError, RouteOptions, RouteStats};
pub use request::{derive_requests, normalize_routes, route_design, ConnectionRequest};
