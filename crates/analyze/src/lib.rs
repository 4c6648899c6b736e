//! `gdcm-analyze` — a static verifier for the DNN IR.
//!
//! Every network the pipeline touches — the 18-network zoo, the 100
//! random networks of the benchmark suite, anything a user hand-builds —
//! flows through the same [`gdcm_dnn::Network`] IR. This crate checks
//! that IR the way a compiler checks its own: five independent passes,
//! each re-deriving an invariant from first principles instead of
//! trusting the code that established it, reporting structured
//! [`Diagnostic`]s with stable `GDCM0NN` codes.
//!
//! | Pass | Checks | Codes |
//! |---|---|---|
//! | [`wellformed`] | topological order, reachability, arity, parameters | `GDCM001`–`GDCM009` |
//! | [`shapes`] | independent shape re-inference vs stored shapes | `GDCM010`–`GDCM019` |
//! | [`costs`] | independent MAC/FLOP/param/byte audit vs stored cost | `GDCM020`–`GDCM029` |
//! | [`conformance`] | generated networks stay inside their search space | `GDCM030`–`GDCM039` |
//! | [`encoding`] | fixed-width, deterministic, finite, total encodings | `GDCM040`–`GDCM049` |
//!
//! The [`Analyzer`] runs the passes in order; when well-formedness finds
//! errors, the shape / cost / encoding passes are skipped because they
//! index along edges the first pass just proved unsound.
//!
//! # Examples
//!
//! ```
//! use gdcm_analyze::Analyzer;
//!
//! let net = gdcm_gen::zoo::mobilenet_v2(1.0).expect("zoo net builds");
//! let report = Analyzer::structural().analyze(&net);
//! assert!(report.is_clean());
//! ```
//!
//! Suite generation can use the analyzer as an admission gate (see
//! [`verified_benchmark_suite`]): a random candidate with any
//! error-severity finding is discarded and re-drawn.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod conformance;
pub mod costs;
pub mod diag;
pub mod encoding;
pub mod shapes;
pub mod wellformed;

pub use conformance::SpaceBounds;
pub use costs::AuditedCost;
pub use diag::{DiagCode, Diagnostic, Pass, Report, Severity};

use gdcm_dnn::Network;
use gdcm_gen::{NamedNetwork, SearchSpace};

/// What the analyzer should check.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalyzerConfig {
    /// When set, run the search-space conformance pass against these
    /// bounds. Leave `None` for networks (e.g. the zoo) that never
    /// claimed to come from a search space.
    pub bounds: Option<SpaceBounds>,
    /// Skip the cost-accounting audit.
    pub skip_costs: bool,
    /// Skip the encoding-invariant pass.
    pub skip_encoding: bool,
}

/// The multi-pass static analyzer. Cheap to construct and stateless
/// across networks; reuse one for a whole sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Analyzer {
    config: AnalyzerConfig,
}

impl Analyzer {
    /// An analyzer with an explicit configuration.
    pub fn new(config: AnalyzerConfig) -> Self {
        Self { config }
    }

    /// Structural analyzer: well-formedness, shapes, costs, and encoding,
    /// with no search-space conformance. Right for zoo and hand-built
    /// networks.
    pub fn structural() -> Self {
        Self::new(AnalyzerConfig::default())
    }

    /// Analyzer for networks claimed to be drawn from `space`: everything
    /// [`Analyzer::structural`] checks plus conformance to the space's
    /// worst-case bounds.
    pub fn for_space(space: &SearchSpace) -> Self {
        Self::new(AnalyzerConfig {
            bounds: Some(SpaceBounds::from_space(space)),
            ..AnalyzerConfig::default()
        })
    }

    /// Adds a total-MAC budget to the conformance pass (a finding above
    /// it is a warning, not an error).
    ///
    /// # Panics
    ///
    /// Panics when the analyzer has no search space configured.
    pub fn with_mac_budget(mut self, budget: u64) -> Self {
        let bounds = self
            .config
            .bounds
            .take()
            .expect("a MAC budget needs a search space to attach to");
        self.config.bounds = Some(bounds.with_mac_budget(budget));
        self
    }

    /// Runs every configured pass over one network.
    ///
    /// Findings are also emitted as structured `gdcm-obs` events
    /// (`diag` kind) so they land in the same sinks as the rest of the
    /// pipeline.
    pub fn analyze(&self, network: &Network) -> Report {
        let _span = gdcm_obs::span!("analyze/network");
        let mut report = Report::new(network.name());
        let out = &mut report.diagnostics;

        wellformed::check(network, out);
        let sound = out.iter().all(|d| d.severity != Severity::Error);

        // The remaining structural passes walk edges and shapes the first
        // pass just validated; on an unsound graph they would read
        // garbage, so they are skipped rather than allowed to cascade.
        if sound {
            shapes::check(network, out);
            if !self.config.skip_costs {
                costs::check(network, &network.cost(), out);
            }
            if !self.config.skip_encoding {
                encoding::check(network, out);
            }
        }
        if let Some(bounds) = &self.config.bounds {
            conformance::check(network, bounds, out);
        }

        gdcm_obs::counter("analyze/networks").add(1);
        report.emit();
        report
    }
}

/// Builds the standard 118-network benchmark suite with the analyzer
/// wired in as an admission gate: every random candidate must pass
/// well-formedness, shape, cost, encoding, and conformance checks with
/// zero error-severity findings or it is discarded and re-drawn.
///
/// Deterministic in `seed`, like [`gdcm_gen::benchmark_suite`] — and
/// byte-identical to it as long as the generator emits only clean
/// networks (the gate then never fires).
pub fn verified_benchmark_suite(seed: u64) -> Vec<NamedNetwork> {
    verified_benchmark_suite_with(seed, SearchSpace::mobile(), gdcm_gen::RANDOM_COUNT)
}

/// [`verified_benchmark_suite`] with a custom space and random count;
/// used by tests to keep runtimes small.
pub fn verified_benchmark_suite_with(
    seed: u64,
    space: SearchSpace,
    random_count: usize,
) -> Vec<NamedNetwork> {
    let analyzer = Analyzer::for_space(&space);
    gdcm_gen::benchmark_suite_gated(seed, space.clone(), random_count, &|candidate| {
        analyzer.analyze(candidate).error_count() == 0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdcm_dnn::NodeId;

    #[test]
    fn structural_analyzer_accepts_zoo_network() {
        let net = gdcm_gen::zoo::mnasnet_a1().expect("zoo net builds");
        let report = Analyzer::structural().analyze(&net);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn unsound_graph_skips_downstream_passes() {
        // A forward edge (cycle) must yield exactly the pass-1 finding,
        // not a cascade of shape/cost noise from the broken edge.
        let net = gdcm_gen::zoo::squeezenet_v1_1().expect("zoo net builds");
        let (name, mut nodes, output) = net.into_raw_parts();
        let last = nodes.len() - 1;
        nodes[1].inputs = vec![NodeId::from_index(last)];
        let broken = Network::from_raw_parts(name, nodes, output);
        let report = Analyzer::structural().analyze(&broken);
        assert!(report.has(DiagCode::NonTopologicalEdge));
        assert!(
            report
                .diagnostics
                .iter()
                .all(|d| d.code.pass() == Pass::WellFormedness),
            "{report}"
        );
    }

    #[test]
    fn verified_suite_matches_ungated_suite() {
        let space = SearchSpace::tiny();
        let gated = verified_benchmark_suite_with(7, space.clone(), 5);
        let plain = gdcm_gen::benchmark_suite_with(7, space, 5);
        assert_eq!(gated, plain, "gate rejected a clean candidate");
    }

    #[test]
    #[should_panic(expected = "needs a search space")]
    fn budget_without_space_panics() {
        let _ = Analyzer::structural().with_mac_budget(1);
    }
}
