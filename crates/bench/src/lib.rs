//! Shared helpers for the figure/table bench harnesses.
//!
//! Every bench target (see `benches/`) regenerates one table or figure of
//! the paper and prints the paper's reported values next to the measured
//! ones. Default runs use reduced scale; set `INCAST_FULL=1` for the
//! paper's full parameters. The ablation and mitigation tables are sweep
//! files (`sweeps/*.json`, [`incast_core::sweep::Sweep`]) that one driver,
//! `benches/sweep.rs`, runs and renders through [`COLUMNS`].

#![forbid(unsafe_code)]

use incast_core::modes::{IncastRunResult, ModesConfig};
use incast_core::sweep::apply_edits;

/// Prints the standard bench banner.
pub fn banner(id: &str, what: &str, paper_claim: &str) {
    println!("================================================================");
    println!("{id}: {what}");
    println!("paper: {paper_claim}");
    println!(
        "scale: {}",
        if incast_core::full_scale() {
            "FULL (INCAST_FULL=1)"
        } else {
            "quick (set INCAST_FULL=1 for paper scale)"
        }
    );
    println!("================================================================");
}

/// The arguments a harness was given (after `--` under `cargo bench`),
/// split by [`parse_args`]; a dangling `--set` exits 2.
pub fn args() -> (Vec<String>, Vec<String>) {
    parse_args(std::env::args().skip(1)).unwrap_or_else(|msg| exit2(&msg))
}

/// Splits `args` into positional arguments and the edits of every
/// `--set path=value` / `--set=path=value`. Other flags — `--bench`, which
/// cargo passes — are dropped.
pub fn parse_args(
    args: impl IntoIterator<Item = String>,
) -> Result<(Vec<String>, Vec<String>), String> {
    let (mut positional, mut edits) = (Vec::new(), Vec::new());
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.strip_prefix("--set=") {
            Some(edit) => edits.push(edit.to_string()),
            None if arg == "--set" => edits.push(it.next().ok_or("--set: missing path=value")?),
            None if arg.starts_with("--") => {}
            None => positional.push(arg),
        }
    }
    Ok((positional, edits))
}

/// `cfg` with `edits` applied. One that does not apply exits 2: an
/// unknown path lists the valid ones, a bad value names its path (and a
/// variant's labels).
pub fn with_edits(mut cfg: ModesConfig, edits: &[String]) -> ModesConfig {
    apply_edits(&mut cfg, edits).unwrap_or_else(|e| exit2(&format!("--set: {e}")));
    cfg
}

/// Prints `msg` and exits 2, the usage-error status.
pub fn exit2(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// A named table column: renders one run's cell.
pub type Column = fn(&IncastRunResult) -> String;

/// Every column a sweep file may name, by name.
pub const COLUMNS: &[(&str, Column)] = &[
    ("mode", |r| r.mode().label().to_string()),
    ("steady BCT ms", |r| f(r.mean_bct_ms)),
    ("mean queue pkts", |r| f(r.mean_steady_queue_pkts())),
    ("peak queue pkts", |r| f(r.peak_steady_queue_pkts())),
    ("steady drops", |r| r.steady_drops.to_string()),
    ("steady timeouts", |r| r.steady_timeouts.to_string()),
    ("steady retx KB", |r| f(r.steady_retx_bytes as f64 / 1024.0)),
    ("mark share", |r| {
        pc(r.marked_pkts as f64 / r.enqueued_pkts.max(1) as f64)
    }),
    ("burst-start spike pkts", |r| {
        f(r.start_spike(simnet::SimTime::from_us(500)))
    }),
    ("drops", |r| r.drops.to_string()),
    ("timeouts", |r| r.timeouts.to_string()),
];

/// The registered column named `name`.
pub fn column(name: &str) -> Option<Column> {
    COLUMNS.iter().find(|c| c.0 == name).map(|c| c.1)
}

/// Formats a float tersely.
pub fn f(x: f64) -> String {
    if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.2}")
    }
}

/// Percent with one decimal.
pub fn pc(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_flag_reads_paths_and_labels_and_rejects_anything_else() {
        use transport::TransportKind::{Quic, Tcp};
        let transport = |args: &[&str]| {
            let (_, edits) = parse_args(args.iter().map(|a| a.to_string()))?;
            let mut cfg = ModesConfig::default();
            apply_edits(&mut cfg, edits).map_err(|e| e.to_string())?;
            Ok::<_, String>(cfg.tcp.transport)
        };
        assert_eq!(transport(&[]), Ok(Tcp));
        let tcp = ["--bench", "--set", "tcp.transport=tcp"];
        assert_eq!(transport(&tcp), Ok(Tcp));
        assert_eq!(transport(&["--set", "tcp.transport=quic"]), Ok(Quic));
        assert_eq!(transport(&["--set=tcp.transport=quic"]), Ok(Quic));
        let err = transport(&["--set", "tcp.transport=quick"]).unwrap_err();
        assert!(err.contains("expected tcp|quic"), "{err}");
        let err = transport(&["--set", "no.such.path=1"]).unwrap_err();
        assert!(err.contains("valid paths: num_flows, topology,"), "{err}");
        assert!(transport(&["--set"]).is_err(), "a missing value");
        assert!(transport(&["--set", "num_flows"]).is_err(), "no `=`");
        let args = ["--bench", "a.json", "--set", "seed=3", "b.json"];
        let (files, edits) = parse_args(args.map(String::from)).unwrap();
        assert_eq!(
            (files, edits),
            (
                vec!["a.json".into(), "b.json".into()],
                vec!["seed=3".into()]
            )
        );
    }

    #[test]
    fn formatting() {
        assert_eq!(f(123.4), "123");
        assert_eq!(f(12.34), "12.3");
        assert_eq!(f(1.234), "1.23");
        assert_eq!(pc(0.5), "50.0%");
    }
}
