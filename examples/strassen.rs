//! Schedule the Strassen matrix-multiplication task graph (paper §IV.B,
//! Figure 9) with every scheme and compare the as-executed makespans.
//!
//! ```sh
//! cargo run --release --example strassen [n] [procs]
//! ```

use locmps::analysis::replay;
use locmps::baselines::registry::paper_set;
use locmps::prelude::*;
use locmps::workloads::strassen::{strassen_graph, StrassenConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1024);
    let p: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(32);

    let g = strassen_graph(&StrassenConfig {
        n,
        ..Default::default()
    });
    let cluster = Cluster::myrinet(p);
    println!(
        "Strassen {n}x{n}: {} tasks, {} edges, on {p} processors\n",
        g.n_tasks(),
        g.n_edges()
    );

    println!(
        "{:<10} {:>12} {:>12} {:>8}",
        "scheme", "planned (s)", "executed (s)", "util %"
    );
    let mut reference = None;
    for kind in paper_set() {
        let s = kind.build();
        let out = s.schedule(&g, &cluster).expect("schedulable");
        // Each scheme runs under its own runtime (see the registry).
        let rep = replay(&g, &cluster, kind.name(), &out, None);
        let reference_ms = *reference.get_or_insert(rep.makespan);
        println!(
            "{:<10} {:>12.3} {:>12.3} {:>7.0}%   (rel {:.3})",
            s.name(),
            out.makespan(),
            rep.makespan,
            100.0 * rep.utilization,
            reference_ms / rep.makespan,
        );
    }
    println!("\n(rel = makespan(LoC-MPS) / makespan(scheme); < 1 trails LoC-MPS)");
}
