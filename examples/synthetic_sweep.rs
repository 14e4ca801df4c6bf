//! Sweep a seeded synthetic workload (paper §IV.A) over cluster sizes and
//! print the relative performance of every scheme — a miniature of the
//! paper's Figures 4/5 runnable in seconds.
//!
//! ```sh
//! cargo run --release --example synthetic_sweep [ccr]
//! ```

use locmps::analysis::replay;
use locmps::baselines::registry::paper_set;
use locmps::prelude::*;
use locmps::workloads::synthetic::{synthetic_graph, SyntheticConfig};

fn main() {
    let ccr: f64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(0.1);
    let graphs: Vec<TaskGraph> = (0..5)
        .map(|seed| {
            synthetic_graph(&SyntheticConfig {
                n_tasks: 20,
                ccr,
                seed,
                ..Default::default()
            })
        })
        .collect();
    println!("5 synthetic graphs, 20 tasks each, CCR={ccr}\n");

    println!(
        "{:>4} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7}",
        "P", "LoC-MPS", "iCASLB", "CPR", "CPA", "TASK", "DATA"
    );
    for p in [4usize, 8, 16, 32] {
        let cluster = Cluster::fast_ethernet(p);
        let mut means = Vec::new();
        for kind in paper_set() {
            let s = kind.build();
            let mean: f64 = graphs
                .iter()
                .map(|g| {
                    let out = s.schedule(g, &cluster).expect("schedulable");
                    replay(g, &cluster, kind.name(), &out, None).makespan
                })
                .sum::<f64>()
                / graphs.len() as f64;
            means.push(mean);
        }
        let reference = means[0];
        print!("{p:>4}");
        for m in means {
            print!(" {:>8.3}", reference / m);
        }
        println!();
    }
    println!("\n(each cell: makespan(LoC-MPS)/makespan(scheme), mean over graphs)");
}
