//! Per-flow transport statistics.

/// Counters kept by a sending connection.
#[derive(Debug, Clone, Default)]
pub struct SenderStats {
    /// Payload bytes handed down by the application so far.
    pub demand_bytes: u64,
    /// Payload bytes transmitted, including retransmissions.
    pub bytes_sent: u64,
    /// Payload bytes retransmitted.
    pub bytes_retx: u64,
    /// Payload bytes cumulatively acknowledged.
    pub bytes_acked: u64,
    /// Data segments transmitted (including retransmissions).
    pub segs_sent: u64,
    /// Fast retransmissions triggered by triple duplicate ACKs.
    pub fast_retransmits: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// ACKs carrying ECN-Echo.
    pub ece_acks: u64,
    /// Total ACKs processed.
    pub acks: u64,
}

/// Counters kept by a receiving connection.
#[derive(Debug, Clone, Default)]
pub struct ReceiverStats {
    /// Payload bytes delivered in order to the application.
    pub bytes_delivered: u64,
    /// Data segments received.
    pub segs_received: u64,
    /// Segments that arrived CE-marked.
    pub ce_segs: u64,
    /// Payload bytes that duplicated already-received data (the receiver-
    /// side view of retransmissions).
    pub dup_bytes: u64,
    /// Segments that arrived out of order (created or extended a gap).
    pub ooo_segs: u64,
    /// ACK packets sent.
    pub acks_sent: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_zero() {
        let s = SenderStats::default();
        assert_eq!(s.bytes_sent, 0);
        assert_eq!(s.timeouts, 0);
        let r = ReceiverStats::default();
        assert_eq!(r.bytes_delivered, 0);
        assert_eq!(r.dup_bytes, 0);
    }
}
