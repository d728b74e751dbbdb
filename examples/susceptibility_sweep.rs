//! Run a miniature version of the paper's SS IV susceptibility analysis
//! (Fig. 7) for one model and print per-scenario accuracy statistics.
//!
//! ```sh
//! cargo run --release --example susceptibility_sweep
//! ```

use safelight::experiment::{run_fig7, workbench, ExperimentOptions, Fidelity};
use safelight::models::ModelKind;
use safelight::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = ExperimentOptions {
        fidelity: Fidelity::Quick,
        ..ExperimentOptions::default()
    };
    let bench = workbench(ModelKind::Cnn1, &opts)?;
    let report = run_fig7(&bench, &opts)?;
    println!(
        "CNN_1 on the matched accelerator (CONV rounds {}, FC rounds {})",
        bench.mapping.rounds(BlockKind::Conv),
        bench.mapping.rounds(BlockKind::Fc)
    );
    println!("baseline accuracy: {:.1}%", report.baseline * 100.0);
    for vector in VectorSpec::paper_pair() {
        for fraction in opts.fractions() {
            let accs: Vec<f64> = report
                .filtered(|s| s.has_vector(vector) && (s.fraction - fraction).abs() < 1e-12)
                .iter()
                .map(|t| t.accuracy)
                .collect();
            let mean = accs.iter().sum::<f64>() / accs.len().max(1) as f64;
            println!(
                "{vector:<10} {:>4.0}% of MRs: mean accuracy {:.1}%",
                fraction * 100.0,
                mean * 100.0
            );
        }
    }
    println!("worst-case drop: {:.1} points", report.worst_drop() * 100.0);
    Ok(())
}
