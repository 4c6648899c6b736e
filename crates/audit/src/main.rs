//! `gdcm-audit` — train the paper's four representations on a zoo
//! dataset and sweep every trained artifact through the audit.
//!
//! ```text
//! gdcm-audit [--devices N] [--seed S] [--json PATH]
//! ```
//!
//! Builds a zoo-only [`CostDataset`] (the 18 reference architectures on
//! a sampled device fleet), trains the static baseline plus the RS /
//! MIS / SCCS signature representations on the configured 70/30 device
//! split, and audits each trained model — tree structure, threshold
//! grid, bit-for-bit reference prediction, dataset lints, fold hygiene,
//! and the flatcheck translation validation of each model's compiled
//! (frozen SoA) form — plus the ensemble audit of a zoo-trained random
//! forest (an unserved ablation baseline, so not frozen or flatchecked)
//! and the leave-device-out fold plan. Writes one model card per model
//! as JSON (default `target/reports/gdcm-audit-cards.json`) and exits
//! non-zero if *any* diagnostic — error or warning — was produced.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use gdcm_audit::{check_leave_device_out, ModelCard};
use gdcm_core::signature::{
    MutualInfoSelector, RandomSelector, SignatureSelector, SpearmanSelector,
};
use gdcm_core::{CostDataset, CostModelPipeline, PipelineConfig, TrainedArtifacts};
use gdcm_gen::{benchmark_suite_with, SearchSpace};
use gdcm_sim::{DevicePopulation, MeasurementConfig};
use serde::Serialize;

struct Args {
    devices: usize,
    seed: u64,
    json: PathBuf,
}

const USAGE: &str = "usage: gdcm-audit [--devices N] [--seed S] [--json PATH]

Trains the paper's four representations (static, RS, MIS, SCCS) on a
zoo dataset and audits every trained artifact; exits non-zero on any
diagnostic.

  --devices N  size of the sampled device fleet (default 24)
  --seed S     dataset / measurement seed (default 42, the suite seed)
  --json PATH  where to write the JSON model cards
               (default target/reports/gdcm-audit-cards.json)";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        devices: 24,
        seed: 42,
        json: PathBuf::from("target/reports/gdcm-audit-cards.json"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--devices" => {
                args.devices = value("--devices")?
                    .parse()
                    .map_err(|e| format!("--devices: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--json" => args.json = PathBuf::from(value("--json")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n\n{USAGE}")),
        }
    }
    Ok(args)
}

/// The JSON document written next to the pipeline's other run reports.
#[derive(Serialize)]
struct SweepReport {
    seed: u64,
    devices: usize,
    models_audited: usize,
    diagnostics_total: usize,
    errors_total: usize,
    cards: Vec<ModelCard>,
}

/// Audits one artifact set end to end: the full model audit with the
/// pipeline's actual hyper-parameters (enabling the threshold-grid and
/// depth/leaf-bound checks), then the split and signature hygiene of
/// the experiment plan around it.
fn audit_artifacts(
    artifacts: &TrainedArtifacts,
    params: &gdcm_ml::GbdtParams,
    n_devices: usize,
    n_networks: usize,
) -> ModelCard {
    let label = format!("gbdt/{}", artifacts.method);
    let mut report = gdcm_audit::audit_trained_model(
        &label,
        &artifacts.model,
        Some(params),
        &artifacts.x_train,
        &artifacts.y_train,
        &gdcm_audit::DatasetLints::pipeline(),
    );
    gdcm_audit::check_split(
        &label,
        &artifacts.train_devices,
        &artifacts.test_devices,
        n_devices,
        &mut report.diagnostics,
    );
    gdcm_audit::check_signature(
        &label,
        &artifacts.signature,
        &artifacts.networks,
        n_networks,
        &mut report.diagnostics,
    );
    // Translation-validate the compiled form every artifact set now
    // carries, against the deterministic rebuild of its training grid.
    let binned = gdcm_ml::BinnedMatrix::from_matrix(&artifacts.x_train, params.max_bins);
    gdcm_audit::check_frozen_gbdt(
        &label,
        &artifacts.model,
        &artifacts.frozen,
        Some(&binned),
        &mut report.diagnostics,
    );
    ModelCard::new(&artifacts.model, artifacts.x_train.n_rows(), report)
        .with_frozen(&artifacts.frozen)
}

/// Trains a random forest on one artifact set's training rows and runs
/// the ensemble audit on it — the forest counterpart of the GBDT sweep,
/// surfaced as a synthetic card. Forests are an ablation baseline and
/// never served, so they are not frozen or flatchecked.
fn audit_zoo_forest(artifacts: &TrainedArtifacts, seed: u64) -> ModelCard {
    let label = "forest/zoo";
    let forest =
        gdcm_ml::RandomForestRegressor::fit(&artifacts.x_train, &artifacts.y_train, 20, 7, seed);
    let mut report = gdcm_analyze::Report::new(label);
    let probe_rows: Vec<usize> =
        (0..artifacts.x_train.n_rows().min(gdcm_audit::probe_rows())).collect();
    let probe = artifacts.x_train.select_rows(&probe_rows);
    gdcm_audit::check_forest(label, &forest, Some(&probe), &mut report.diagnostics);
    ModelCard {
        subject: label.to_string(),
        n_trees: forest.n_trees(),
        n_features: forest.n_features(),
        base_score: 0.0,
        n_leaves: 0,
        max_depth: 0,
        n_train_rows: artifacts.x_train.n_rows(),
        flatchecked: false,
        frozen_slots: 0,
        report,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let _span = gdcm_obs::span!("audit/sweep");

    // Zoo-only dataset: the 18 reference architectures on a sampled
    // fleet. No random networks — the analyzer sweep covers those; this
    // sweep is about what training *produces*, not what generation draws.
    let data = {
        let _span = gdcm_obs::span!("audit/dataset");
        let suite = benchmark_suite_with(args.seed, SearchSpace::mobile(), 0);
        let devices = DevicePopulation::sample(args.devices, args.seed.wrapping_add(1)).devices;
        CostDataset::from_parts(
            suite,
            devices,
            MeasurementConfig {
                runs: 5,
                seed: args.seed,
            },
        )
    };
    let config = PipelineConfig {
        signature_size: 4,
        ..PipelineConfig::default()
    };
    let pipeline = CostModelPipeline::new(&data, config.clone());
    let (train, test) = pipeline.device_split();

    let selectors: Vec<Box<dyn SignatureSelector>> = vec![
        Box::new(RandomSelector::new(args.seed)),
        Box::new(MutualInfoSelector::default()),
        Box::new(SpearmanSelector::default()),
    ];
    let mut artifact_sets = vec![pipeline.static_artifacts(&train, &test)];
    for selector in &selectors {
        artifact_sets.push(pipeline.signature_artifacts(selector.as_ref(), &train, &test));
    }

    let mut cards: Vec<ModelCard> = artifact_sets
        .iter()
        .map(|artifacts| {
            let card =
                audit_artifacts(artifacts, &config.gbdt, data.n_devices(), data.n_networks());
            card.emit();
            card
        })
        .collect();

    // The forest counterpart, trained on the static artifact set's rows.
    let forest_card = audit_zoo_forest(&artifact_sets[0], args.seed);
    forest_card.emit();
    cards.push(forest_card);

    // The leave-device-out plan the pipeline would evaluate: every
    // device held out exactly once.
    let n = data.n_devices();
    let ldo_folds: Vec<(Vec<usize>, Vec<usize>)> = (0..n)
        .map(|held_out| {
            let train: Vec<usize> = (0..n).filter(|&d| d != held_out).collect();
            (train, vec![held_out])
        })
        .collect();
    let mut ldo_report = gdcm_analyze::Report::new("folds/leave-device-out");
    check_leave_device_out(
        "folds/leave-device-out",
        &ldo_folds,
        n,
        &mut ldo_report.diagnostics,
    );
    ldo_report.emit();
    if !ldo_report.is_clean() {
        // Surface plan-level findings as a synthetic card so they land
        // in the same JSON artifact.
        cards.push(ModelCard {
            subject: ldo_report.network.clone(),
            n_trees: 0,
            n_features: 0,
            base_score: 0.0,
            n_leaves: 0,
            max_depth: 0,
            n_train_rows: 0,
            flatchecked: false,
            frozen_slots: 0,
            report: ldo_report,
        });
    }

    let diagnostics_total: usize = cards.iter().map(|c| c.report.diagnostics.len()).sum();
    let errors_total: usize = cards.iter().map(|c| c.report.error_count()).sum();
    for card in cards.iter().filter(|c| !c.is_clean()) {
        print!("{card}");
    }

    let sweep = SweepReport {
        seed: args.seed,
        devices: args.devices,
        models_audited: cards.len(),
        diagnostics_total,
        errors_total,
        cards,
    };
    if let Err(e) = write_json(&args.json, &sweep) {
        eprintln!("gdcm-audit: cannot write {}: {e}", args.json.display());
        return ExitCode::FAILURE;
    }

    let mut run = gdcm_obs::RunReport::new("gdcm-audit");
    run.set_dim("models_audited", sweep.models_audited as u64);
    run.set_dim("devices", args.devices as u64);
    run.set_dim("threads", gdcm_par::pool().threads() as u64);
    run.set_metric("diagnostics_total", diagnostics_total as f64);
    run.set_metric("errors_total", errors_total as f64);
    if let Err(e) = run.finalize_and_write() {
        eprintln!("gdcm-audit: cannot write run report: {e}");
    }

    println!(
        "gdcm-audit: {} models, {} diagnostics ({} errors) -> {}",
        sweep.models_audited,
        diagnostics_total,
        errors_total,
        args.json.display()
    );
    if diagnostics_total > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn write_json(path: &PathBuf, sweep: &SweepReport) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::File::create(path)?;
    let body = serde_json::to_string_pretty(sweep).map_err(std::io::Error::other)?;
    file.write_all(body.as_bytes())?;
    file.write_all(b"\n")
}
