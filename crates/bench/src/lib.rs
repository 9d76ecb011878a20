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

/// Loss-recovery stack selection for the figure harnesses: `--transport
/// tcp|quic` on the command line (after `--` under `cargo bench`), or the
/// `INCAST_TRANSPORT` environment variable; defaults to TCP, the paper's
/// stack. Lets every figure re-run under the QUIC-style engine to ask
/// which findings are TCP artifacts (see EXPERIMENTS.md).
pub fn transport_arg() -> transport::TransportKind {
    let mut it = std::env::args().skip(1);
    let mut choice = std::env::var("INCAST_TRANSPORT").ok();
    while let Some(flag) = it.next() {
        if flag == "--transport" {
            choice = it.next();
        } else if let Some(v) = flag.strip_prefix("--transport=") {
            choice = Some(v.to_string());
        }
    }
    match choice.as_deref() {
        None | Some("tcp") => transport::TransportKind::Tcp,
        Some("quic") => transport::TransportKind::Quic,
        Some(other) => {
            eprintln!("unknown transport {other:?} (tcp|quic); using tcp");
            transport::TransportKind::Tcp
        }
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
    fn formatting() {
        assert_eq!(f(123.4), "123");
        assert_eq!(f(12.34), "12.3");
        assert_eq!(f(1.234), "1.23");
        assert_eq!(pc(0.5), "50.0%");
    }
}
