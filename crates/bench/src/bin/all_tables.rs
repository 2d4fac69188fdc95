//! Convenience runner: regenerates every table and figure in one go,
//! writing each binary's output to `results/<name>.txt` (and echoing to
//! stdout). The binaries run as a campaign on the `hierbus-campaign`
//! engine — `CAMPAIGN_WORKERS=N` regenerates up to N tables
//! concurrently, and the echoed/written output is merged in the fixed
//! table order either way.
//! `cargo run --release -p hierbus-bench --bin all_tables`.

use hierbus_campaign::{CampaignOptions, CampaignPayload, Json, Matrix};
use std::fs;
use std::process::Command;

const BINARIES: [&str; 7] = [
    "table1_timing",
    "table2_energy",
    "table3_simperf",
    "fig6_sampling",
    "explore_jcvm",
    "ablations",
    "attribution",
];

/// One regenerated table: the binary's name and its stdout.
struct TableOutput {
    name: String,
    text: String,
}

impl CampaignPayload for TableOutput {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".to_owned(), Json::Str(self.name.clone())),
            ("text".to_owned(), Json::Str(self.text.clone())),
        ])
    }

    fn from_json(json: &Json) -> Option<Self> {
        Some(TableOutput {
            name: json.get("name")?.as_str()?.to_owned(),
            text: json.get("text")?.as_str()?.to_owned(),
        })
    }
}

fn main() {
    let results = hierbus_bench::results_dir(None).expect("create results directory");
    let exe_dir = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("bin directory")
        .to_path_buf();
    let matrix = Matrix::new().axis("table", BINARIES);
    let workers = hierbus_campaign::worker_count(None);
    let report = hierbus_campaign::run(
        &matrix,
        &CampaignOptions::with_workers("all_tables", workers),
        |point| {
            let name = BINARIES[point.coords[0]];
            let output = Command::new(exe_dir.join(name))
                .output()
                .unwrap_or_else(|e| panic!("running {name}: {e}"));
            assert!(
                output.status.success(),
                "{name} failed:\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
            TableOutput {
                name: name.to_owned(),
                text: String::from_utf8_lossy(&output.stdout).into_owned(),
            }
        },
    )
    .expect("manifest-less campaign cannot fail on I/O");
    eprintln!("campaign: {}", report.stats);
    for (_, table) in report.completed() {
        println!("==== {} ====", table.name);
        println!("{}", table.text);
        fs::write(results.join(format!("{}.txt", table.name)), &table.text)
            .unwrap_or_else(|e| panic!("writing results/{}.txt: {e}", table.name));
    }
    println!("wrote results/<name>.txt for: {}", BINARIES.join(", "));
}
