//! Shared helpers for the figure/table bench harnesses.
//!
//! Every bench target (see `benches/`) regenerates one table or figure of
//! the paper and prints the paper's reported values next to the measured
//! ones. Default runs use reduced scale; set `INCAST_FULL=1` for the
//! paper's full parameters.

#![forbid(unsafe_code)]

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

/// Loss-recovery stack selection for the figure harnesses and the
/// `dctcp_modes` example: `--transport tcp|quic` on the command line
/// (after `--` under `cargo bench`); defaults to TCP, the paper's stack.
/// Lets every figure re-run under the QUIC-style engine to ask which
/// findings are TCP artifacts (see EXPERIMENTS.md). An unknown value exits
/// 2, listing the labels.
pub fn transport_arg() -> transport::TransportKind {
    parse_transport(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2)
    })
}

/// The transport `--transport V` or `--transport=V` in `args` names (the
/// last one given), read through `TransportKind`'s labels.
pub fn parse_transport(
    args: impl IntoIterator<Item = String>,
) -> Result<transport::TransportKind, String> {
    let mut it = args.into_iter();
    let mut choice = None;
    while let Some(flag) = it.next() {
        if flag == "--transport" {
            choice = Some(it.next().ok_or("--transport: missing value (tcp|quic)")?);
        } else if let Some(v) = flag.strip_prefix("--transport=") {
            choice = Some(v.to_string());
        }
    }
    match choice {
        None => Ok(transport::TransportKind::Tcp),
        Some(v) => stats::leaves::read_label(&v).map_err(|e| format!("--transport: {}", e.reason)),
    }
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
    fn transport_flag_reads_the_labels_and_rejects_anything_else() {
        use transport::TransportKind::{Quic, Tcp};
        let parse = |args: &[&str]| parse_transport(args.iter().map(|a| a.to_string()));
        assert_eq!(parse(&[]), Ok(Tcp));
        assert_eq!(parse(&["--bench", "--transport", "tcp"]), Ok(Tcp));
        assert_eq!(parse(&["--transport", "quic"]), Ok(Quic));
        assert_eq!(parse(&["--transport=quic"]), Ok(Quic));
        let err = parse(&["--transport", "quick"]).unwrap_err();
        assert!(err.contains("expected tcp|quic"), "{err}");
        assert!(parse(&["--transport"]).is_err(), "a missing value");
    }

    #[test]
    fn formatting() {
        assert_eq!(f(123.4), "123");
        assert_eq!(f(12.34), "12.3");
        assert_eq!(f(1.234), "1.23");
        assert_eq!(pc(0.5), "50.0%");
    }
}
