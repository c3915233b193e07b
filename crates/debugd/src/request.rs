//! The campaign request: what a client submits to the service.
//!
//! Requests arrive as small JSON objects (one file per request on the
//! file-queue protocol, see [`crate::orchestrator::serve`]). Every
//! field beyond `id` and `design` has a sensible default, so the
//! minimal request is:
//!
//! ```json
//! {"id": "smoke-1", "design": "9sym"}
//! ```
//!
//! and a fully specified one:
//!
//! ```json
//! {
//!   "id": "styr-binary-quick",
//!   "design": "styr",
//!   "target_tiles": 10,
//!   "impl_seed": 41,
//!   "strategy": "binary-search",
//!   "flow": "quick-eco",
//!   "patterns": "lfsr",
//!   "pattern_count": 256,
//!   "seed": 7,
//!   "error_seeds": [31, 32, 33],
//!   "confirm_with_control": true
//! }
//! ```
//!
//! `error_seeds` is the campaign budget: one planted error per seed,
//! all debugged in one [`tiling::session::DebugSession`] campaign
//! (concurrently when there is more than one seed).

use std::fmt;

use synth::PaperDesign;
use tiling::flows::{FullReplaceFlow, IncrementalFlow, QuickEcoFlow, ReimplFlow, TiledFlow};
use tiling::session::PatternSpec;
use tiling::strategy::{BinarySearch, LinearBatches, LocalizationStrategy};

use crate::json::{self, Value};

/// Which localization strategy a campaign runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrategyKind {
    /// [`LinearBatches`] with its default batch size.
    #[default]
    LinearBatches,
    /// [`BinarySearch`].
    BinarySearch,
}

impl StrategyKind {
    /// The protocol name (what requests say and reports echo).
    pub fn name(self) -> &'static str {
        match self {
            Self::LinearBatches => "linear-batches",
            Self::BinarySearch => "binary-search",
        }
    }

    /// Parses a protocol name.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "linear-batches" => Some(Self::LinearBatches),
            "binary-search" => Some(Self::BinarySearch),
            _ => None,
        }
    }

    /// Builds the strategy object a session consumes.
    pub fn instantiate(self) -> Box<dyn LocalizationStrategy> {
        match self {
            Self::LinearBatches => Box::new(LinearBatches::default()),
            Self::BinarySearch => Box::new(BinarySearch::new()),
        }
    }
}

/// Which physical re-implementation flow a campaign pays per ECO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowKind {
    /// The paper's tiled flow (re-P&R only the affected tiles).
    #[default]
    Tiled,
    /// Full re-place-and-route per ECO (the paper's baseline).
    FullReplace,
    /// Incremental ECO placement.
    Incremental,
    /// Quick ECO (cheapest, lowest quality).
    QuickEco,
}

impl FlowKind {
    /// The protocol name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Tiled => "tiled",
            Self::FullReplace => "full-replace",
            Self::Incremental => "incremental",
            Self::QuickEco => "quick-eco",
        }
    }

    /// Parses a protocol name.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "tiled" => Some(Self::Tiled),
            "full-replace" => Some(Self::FullReplace),
            "incremental" => Some(Self::Incremental),
            "quick-eco" => Some(Self::QuickEco),
            _ => None,
        }
    }

    /// Builds the flow object a session consumes.
    pub fn instantiate(self) -> Box<dyn ReimplFlow> {
        match self {
            Self::Tiled => Box::new(TiledFlow),
            Self::FullReplace => Box::new(FullReplaceFlow),
            Self::Incremental => Box::new(IncrementalFlow),
            Self::QuickEco => Box::new(QuickEcoFlow),
        }
    }
}

/// Stimulus choice, protocol-side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PatternKind {
    /// Exhaustive for narrow designs, 512 LFSR vectors otherwise.
    #[default]
    Auto,
    /// All input vectors.
    Exhaustive,
    /// `count` LFSR vectors.
    Lfsr,
    /// `count` uniform random vectors.
    Random,
}

impl PatternKind {
    /// The protocol name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Auto => "auto",
            Self::Exhaustive => "exhaustive",
            Self::Lfsr => "lfsr",
            Self::Random => "random",
        }
    }

    /// Parses a protocol name.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(Self::Auto),
            "exhaustive" => Some(Self::Exhaustive),
            "lfsr" => Some(Self::Lfsr),
            "random" => Some(Self::Random),
            _ => None,
        }
    }

    /// Lowers to the session-level [`PatternSpec`].
    pub fn to_spec(self, count: usize) -> PatternSpec {
        match self {
            Self::Auto => PatternSpec::Auto,
            Self::Exhaustive => PatternSpec::Exhaustive,
            Self::Lfsr => PatternSpec::Lfsr { count },
            Self::Random => PatternSpec::Random { count },
        }
    }
}

/// One campaign request, fully resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRequest {
    /// Client-chosen id; names the report and event-stream files.
    pub id: String,
    /// Which paper design to debug.
    pub design: PaperDesign,
    /// Tile count for the implement step (artifact-key component).
    pub target_tiles: usize,
    /// Placer seed for the implement step (artifact-key component).
    pub impl_seed: u64,
    /// Localization strategy.
    pub strategy: StrategyKind,
    /// Physical flow.
    pub flow: FlowKind,
    /// Stimulus kind.
    pub patterns: PatternKind,
    /// Vector count for `lfsr` / `random` stimulus.
    pub pattern_count: usize,
    /// Session seed (stimulus + tie-breaks).
    pub seed: u64,
    /// Error budget: one planted error per seed.
    pub error_seeds: Vec<u64>,
    /// Run the §4.1 control-point confirmation step.
    pub confirm_with_control: bool,
    /// Test hook: panic inside the worker instead of running the
    /// campaign — exercises the orchestrator's drain-and-report path.
    pub inject_panic: bool,
}

impl Default for CampaignRequest {
    fn default() -> Self {
        Self {
            id: String::new(),
            design: PaperDesign::NineSym,
            target_tiles: 10,
            impl_seed: 41,
            strategy: StrategyKind::default(),
            flow: FlowKind::default(),
            patterns: PatternKind::default(),
            pattern_count: 512,
            seed: 7,
            error_seeds: vec![31],
            // The session default: run the §4.1 confirmation ECO.
            confirm_with_control: true,
            inject_panic: false,
        }
    }
}

/// Why a request was rejected at parse time.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError(pub String);

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad campaign request: {}", self.0)
    }
}

impl std::error::Error for RequestError {}

fn design_from_name(s: &str) -> Option<PaperDesign> {
    PaperDesign::ALL.into_iter().find(|d| d.name() == s)
}

impl CampaignRequest {
    /// Parses a request from its JSON text.
    ///
    /// # Errors
    ///
    /// Rejects malformed JSON, missing `id`/`design`, and unknown
    /// enum names — with a message naming the offending field.
    pub fn from_json(text: &str) -> Result<Self, RequestError> {
        let v = json::parse(text).map_err(|e| RequestError(e.to_string()))?;
        let id = v
            .get("id")
            .and_then(Value::as_str)
            .filter(|s| !s.is_empty())
            .ok_or_else(|| RequestError("missing \"id\"".into()))?
            .to_string();
        let design = v
            .get("design")
            .and_then(Value::as_str)
            .ok_or_else(|| RequestError("missing \"design\"".into()))?;
        let design = design_from_name(design)
            .ok_or_else(|| RequestError(format!("unknown design \"{design}\"")))?;
        let mut req = CampaignRequest {
            id,
            design,
            ..CampaignRequest::default()
        };
        if let Some(x) = v.get("target_tiles") {
            req.target_tiles = x.as_usize().filter(|&t| t >= 1).ok_or_else(|| {
                RequestError("\"target_tiles\" must be a positive integer".into())
            })?;
        }
        if let Some(x) = v.get("impl_seed") {
            req.impl_seed = x
                .as_u64()
                .ok_or_else(|| RequestError("\"impl_seed\" must be an integer".into()))?;
        }
        if let Some(x) = v.get("strategy") {
            let s = x
                .as_str()
                .ok_or_else(|| RequestError("\"strategy\" must be a string".into()))?;
            req.strategy = StrategyKind::from_name(s)
                .ok_or_else(|| RequestError(format!("unknown strategy \"{s}\"")))?;
        }
        if let Some(x) = v.get("flow") {
            let s = x
                .as_str()
                .ok_or_else(|| RequestError("\"flow\" must be a string".into()))?;
            req.flow = FlowKind::from_name(s)
                .ok_or_else(|| RequestError(format!("unknown flow \"{s}\"")))?;
        }
        if let Some(x) = v.get("patterns") {
            let s = x
                .as_str()
                .ok_or_else(|| RequestError("\"patterns\" must be a string".into()))?;
            req.patterns = PatternKind::from_name(s)
                .ok_or_else(|| RequestError(format!("unknown pattern kind \"{s}\"")))?;
        }
        if let Some(x) = v.get("pattern_count") {
            req.pattern_count = x.as_usize().filter(|&c| c >= 1).ok_or_else(|| {
                RequestError("\"pattern_count\" must be a positive integer".into())
            })?;
        }
        if let Some(x) = v.get("seed") {
            req.seed = x
                .as_u64()
                .ok_or_else(|| RequestError("\"seed\" must be an integer".into()))?;
        }
        if let Some(x) = v.get("error_seeds") {
            let arr = x
                .as_arr()
                .ok_or_else(|| RequestError("\"error_seeds\" must be an array".into()))?;
            req.error_seeds = arr
                .iter()
                .map(|e| {
                    e.as_u64().ok_or_else(|| {
                        RequestError("\"error_seeds\" entries must be integers".into())
                    })
                })
                .collect::<Result<_, _>>()?;
            if req.error_seeds.is_empty() {
                return Err(RequestError("\"error_seeds\" must not be empty".into()));
            }
        }
        if let Some(x) = v.get("confirm_with_control") {
            req.confirm_with_control = x
                .as_bool()
                .ok_or_else(|| RequestError("\"confirm_with_control\" must be a bool".into()))?;
        }
        if let Some(x) = v.get("inject_panic") {
            req.inject_panic = x
                .as_bool()
                .ok_or_else(|| RequestError("\"inject_panic\" must be a bool".into()))?;
        }
        Ok(req)
    }

    /// Semantic validation, run after parsing and before any worker
    /// is occupied: field *ranges* a well-formed request can still get
    /// wrong. Parse-time checks ([`Self::from_json`]) own shape and
    /// enum names; this owns what "in range" means for the service —
    /// an id that cannot name a report file, a tile count the design's
    /// CLB budget cannot fill, a stimulus or error budget past the
    /// service caps.
    ///
    /// # Errors
    ///
    /// [`RequestError`] naming the offending field and bound.
    pub fn validate(&self) -> Result<(), RequestError> {
        // The id names `reports/<id>.json` and `events/<id>.jsonl`, so
        // it must be one plain file-name component.
        const MAX_ID: usize = 128;
        let plain = |c: char| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-');
        if matches!(self.id.as_str(), "" | "." | "..")
            || self.id.len() > MAX_ID
            || !self.id.chars().all(plain)
        {
            return Err(RequestError(format!(
                "\"id\" {:?} must be 1..={MAX_ID} characters of [A-Za-z0-9._-], not . or ..",
                self.id
            )));
        }
        // One tile per paper CLB is already degenerate; past it the
        // partitioner cannot even assign every tile a cell.
        let max_tiles = self.design.paper_clbs();
        if self.target_tiles == 0 || self.target_tiles > max_tiles {
            return Err(RequestError(format!(
                "\"target_tiles\" {} out of range 1..={max_tiles} for design \"{}\"",
                self.target_tiles,
                self.design.name()
            )));
        }
        const MAX_PATTERNS: usize = 1 << 16;
        if self.pattern_count == 0 || self.pattern_count > MAX_PATTERNS {
            return Err(RequestError(format!(
                "\"pattern_count\" {} out of range 1..={MAX_PATTERNS}",
                self.pattern_count
            )));
        }
        const MAX_ERRORS: usize = 64;
        if self.error_seeds.is_empty() || self.error_seeds.len() > MAX_ERRORS {
            return Err(RequestError(format!(
                "\"error_seeds\" carries {} seeds, allowed 1..={MAX_ERRORS}",
                self.error_seeds.len()
            )));
        }
        Ok(())
    }

    /// Renders the request back to protocol JSON (used when echoing
    /// the request into its report).
    pub fn to_json(&self) -> String {
        let seeds: Vec<String> = self.error_seeds.iter().map(u64::to_string).collect();
        format!(
            "{{\"id\": \"{}\", \"design\": \"{}\", \"target_tiles\": {}, \"impl_seed\": {}, \
             \"strategy\": \"{}\", \"flow\": \"{}\", \"patterns\": \"{}\", \"pattern_count\": {}, \
             \"seed\": {}, \"error_seeds\": [{}], \"confirm_with_control\": {}}}",
            json::escape(&self.id),
            json::escape(self.design.name()),
            self.target_tiles,
            self.impl_seed,
            self.strategy.name(),
            self.flow.name(),
            self.patterns.name(),
            self.pattern_count,
            self.seed,
            seeds.join(", "),
            self.confirm_with_control,
        )
    }

    /// The artifact identity this request implements against.
    pub fn artifact_key(&self) -> String {
        format!(
            "{}/t{}/s{}",
            self.design.name(),
            self.target_tiles,
            self.impl_seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_request_gets_defaults() {
        let r = CampaignRequest::from_json(r#"{"id": "a", "design": "9sym"}"#).unwrap();
        assert_eq!(r.id, "a");
        assert_eq!(r.design, PaperDesign::NineSym);
        assert_eq!(r.error_seeds, vec![31]);
        assert_eq!(r.strategy, StrategyKind::LinearBatches);
        assert_eq!(r.flow, FlowKind::Tiled);
        assert!(!r.inject_panic);
    }

    #[test]
    fn full_request_round_trips() {
        let r = CampaignRequest {
            id: "styr-x".into(),
            design: PaperDesign::Styr,
            strategy: StrategyKind::BinarySearch,
            flow: FlowKind::QuickEco,
            patterns: PatternKind::Lfsr,
            pattern_count: 256,
            seed: 11,
            error_seeds: vec![31, 32, 33],
            confirm_with_control: true,
            ..Default::default()
        };
        let parsed = CampaignRequest::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn bad_requests_name_the_field() {
        let e = CampaignRequest::from_json(r#"{"design": "9sym"}"#).unwrap_err();
        assert!(e.0.contains("id"), "{e}");
        let e = CampaignRequest::from_json(r#"{"id": "a", "design": "nope"}"#).unwrap_err();
        assert!(e.0.contains("nope"), "{e}");
        let e = CampaignRequest::from_json(r#"{"id": "a", "design": "9sym", "flow": "warp"}"#)
            .unwrap_err();
        assert!(e.0.contains("warp"), "{e}");
        let e = CampaignRequest::from_json(r#"{"id": "a", "design": "9sym", "error_seeds": []}"#)
            .unwrap_err();
        assert!(e.0.contains("error_seeds"), "{e}");
    }

    #[test]
    fn ids_must_be_plain_file_names() {
        let with_id = |id: &str| CampaignRequest {
            id: id.into(),
            ..Default::default()
        };
        for id in ["comb-tiled-7-00001", "MIPS_R2000-00", "c00", "v1.2", "..."] {
            assert!(with_id(id).validate().is_ok(), "{id}");
        }
        let long = "x".repeat(129);
        for id in [
            "",
            ".",
            "..",
            "../escape",
            "a/b",
            "/abs",
            "a\\b",
            "sp ace",
            "é",
            &long,
        ] {
            let e = with_id(id).validate().unwrap_err();
            assert!(e.0.contains("\"id\""), "{id}: {e}");
        }
        assert!(with_id(&"x".repeat(128)).validate().is_ok());
    }
}
