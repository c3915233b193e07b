//! Bridges the [`drc`] static analyzer into the tiling core.
//!
//! Three duties: build DRC views over a [`TiledDesign`] (the `drc`
//! crate deliberately knows nothing about tile plans or region sets),
//! run the pre-flight check a [`DebugSession`](crate::session::DebugSession)
//! performs before touching a design, and run the post-ECO audit that
//! re-proves the locked-interface / frozen-route contract after every
//! confined re-implementation in debug builds.

use drc::{DesignView, Drc, EcoRegion, EcoSnapshot, Finding, Severity, TileView};
use fpga::{BelLoc, NodeId, Placement, Routing, RoutingGraph};

use crate::error::TilingError;
use crate::flow::TiledDesign;
use crate::interface::RegionSet;
use crate::tile::TileId;

/// Per-tile usage summaries for the DRC slack-accounting pass.
///
/// # Errors
///
/// Propagates plan lookup failures (impossible for indices the plan
/// itself yields, but the signature keeps the audit panic-free).
pub fn tile_views(td: &TiledDesign) -> Result<Vec<TileView>, TilingError> {
    let mut views = Vec::with_capacity(td.plan.len());
    for (id, tile) in td.plan.iter() {
        let usage = td.plan.usage(id, &td.placement)?;
        views.push(TileView {
            id: id.index(),
            rect: tile.rect,
            used_clbs: usage.used_clbs(),
            capacity_clbs: usage.capacity,
        });
    }
    Ok(views)
}

/// Runs every DRC layer over the design's current state.
///
/// # Errors
///
/// Propagates tile-plan lookup failures; findings are *returned*, not
/// errors.
pub fn check_design(td: &TiledDesign) -> Result<Vec<Finding>, TilingError> {
    let tiles = tile_views(td)?;
    let view = DesignView {
        netlist: &td.netlist,
        placement: &td.placement,
        routing: &td.routing,
        rrg: &td.rrg,
        tiles: &tiles,
    };
    Ok(Drc::new().check_design(&view))
}

/// The session pre-flight: rejects a design carrying any
/// error-severity finding with [`TilingError::Drc`] before a single
/// pattern is simulated or a single tile cleared. Warnings (dead
/// logic, thin slack) pass — they degrade quality, not soundness.
///
/// Returns the findings (including warnings) on success so callers
/// can surface them as metrics.
///
/// # Errors
///
/// [`TilingError::Drc`] with every finding when at least one has
/// [`Severity::Error`].
pub fn preflight(td: &TiledDesign) -> Result<Vec<Finding>, TilingError> {
    let findings = check_design(td)?;
    if drc::max_severity(&findings) == Some(Severity::Error) {
        return Err(TilingError::Drc { findings });
    }
    Ok(findings)
}

/// [`RegionSet`] wearing the audit's [`EcoRegion`] interface.
struct RegionEco<'a> {
    region: &'a RegionSet,
    rrg: &'a RoutingGraph,
}

impl EcoRegion for RegionEco<'_> {
    fn touches_node(&self, node: NodeId) -> bool {
        self.region.touches_node(self.rrg, node)
    }

    fn contains_loc(&self, loc: BelLoc) -> bool {
        match loc {
            BelLoc::Clb { coord, .. } => self
                .region
                .contains_clamped(i32::from(coord.x), i32::from(coord.y)),
            // Pads are never inside a tile region (an ECO never clears
            // them), so the audit treats every IOB as locked.
            BelLoc::Iob(_) => false,
        }
    }
}

/// Audits one *confined* ECO: cells outside the cleared tiles still on
/// their pre-ECO BELs, routes that never touch the cleared region
/// byte-identical. `before_*` are the placement and routing as they
/// were at the top of
/// [`replace_and_route`](crate::eco_flow::replace_and_route), which
/// debug builds copy for this audit; the design itself holds the
/// *after* state.
pub fn audit_confined_eco(
    td: &TiledDesign,
    tiles: &[TileId],
    before_placement: &Placement,
    before_routing: &Routing,
) -> Vec<Finding> {
    let region = RegionSet::from_tiles(&td.device, &td.plan, tiles);
    let eco = RegionEco {
        region: &region,
        rrg: &td.rrg,
    };
    Drc::new().audit_eco(
        &td.netlist,
        &td.rrg,
        &eco,
        EcoSnapshot {
            placement: before_placement,
            routing: before_routing,
        },
        EcoSnapshot {
            placement: &td.placement,
            routing: &td.routing,
        },
    )
}
