//! Shared switch buffer management.
//!
//! Real ToR switches share one memory pool across all port queues. The paper
//! points to this repeatedly: per-port capacity limits exist, "but the
//! capacity available at runtime may be lower because total memory is shared
//! between ports" (§3.4), and their own NS3 simulations *not* modeling it is
//! why simulated Mode 1/2 sees no loss while production does (§4.1.1).
//!
//! We model the classic **Dynamic Threshold** (DT) scheme (Choudhury &
//! Hahne): a queue of current length `q` may accept an arrival only if
//! `q < alpha * (total - used)`, where `used` is the pool-wide occupancy.
//! With one hot queue, DT lets it grow to `alpha/(1+alpha)` of the pool;
//! with several, each gets proportionally less — exactly the "rack-level
//! contention" effect.

/// Shared-buffer admission policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BufferPolicy {
    /// Admit while the pool has room (queues still enforce their own caps).
    StaticPool,
    /// Dynamic Threshold with the given `alpha`.
    DynamicThreshold { alpha: f64 },
}

stats::variants!(BufferPolicy {
    StaticPool => "static_pool",
    DynamicThreshold { alpha } => "dynamic_threshold",
});

/// One shared memory pool, charged by every member queue.
#[derive(Debug, Clone)]
pub struct SharedBuffer {
    total_bytes: u64,
    used_bytes: u64,
    peak_bytes: u64,
    policy: BufferPolicy,
    /// Admission refusals (for diagnostics).
    pub refusals: u64,
    /// Pending fault-injected shrink target: when a resize lands below the
    /// current occupancy, `total_bytes` ratchets down toward this as
    /// packets drain (so `used <= total` always holds).
    shrink_target: Option<u64>,
}

impl SharedBuffer {
    /// Creates a pool of `total_bytes` under `policy`.
    pub fn new(total_bytes: u64, policy: BufferPolicy) -> Self {
        assert!(total_bytes > 0, "zero-size shared buffer");
        if let BufferPolicy::DynamicThreshold { alpha } = policy {
            assert!(alpha > 0.0 && alpha.is_finite(), "invalid DT alpha");
        }
        SharedBuffer {
            total_bytes,
            used_bytes: 0,
            peak_bytes: 0,
            policy,
            refusals: 0,
            shrink_target: None,
        }
    }

    /// Resizes the pool (fault injection). Growing takes effect
    /// immediately and cancels any pending shrink. Shrinking below the
    /// current occupancy clamps to `used_bytes` now and ratchets the rest
    /// of the way down as packets drain, keeping `used <= total` — the
    /// byte-accounting audits hold through any resize schedule.
    pub fn set_total_bytes(&mut self, target: u64) {
        assert!(target > 0, "zero-size shared buffer resize");
        if target >= self.used_bytes {
            self.total_bytes = target;
            self.shrink_target = None;
        } else {
            self.total_bytes = self.used_bytes;
            self.shrink_target = Some(target);
        }
    }

    /// Pool size.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Bytes currently charged.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Free bytes.
    pub fn free_bytes(&self) -> u64 {
        self.total_bytes - self.used_bytes
    }

    /// Highest occupancy ever charged (the pool's high-water mark).
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Decides whether a queue currently holding `queue_bytes` may accept an
    /// arrival of `pkt_bytes`. Does not charge the pool; call
    /// [`SharedBuffer::on_enqueue`] after the queue accepts.
    pub fn admit(&mut self, queue_bytes: u64, pkt_bytes: u64) -> bool {
        if self.used_bytes + pkt_bytes > self.total_bytes {
            self.refusals += 1;
            return false;
        }
        let ok = match self.policy {
            BufferPolicy::StaticPool => true,
            BufferPolicy::DynamicThreshold { alpha } => {
                let limit = alpha * self.free_bytes() as f64;
                (queue_bytes + pkt_bytes) as f64 <= limit
            }
        };
        if !ok {
            self.refusals += 1;
        }
        ok
    }

    /// Charges the pool for an accepted arrival.
    pub fn on_enqueue(&mut self, pkt_bytes: u64) {
        self.used_bytes += pkt_bytes;
        self.peak_bytes = self.peak_bytes.max(self.used_bytes);
        debug_assert!(self.used_bytes <= self.total_bytes);
    }

    /// Releases pool memory on dequeue.
    pub fn on_dequeue(&mut self, pkt_bytes: u64) {
        debug_assert!(self.used_bytes >= pkt_bytes);
        self.used_bytes = self.used_bytes.saturating_sub(pkt_bytes);
        if let Some(target) = self.shrink_target {
            self.total_bytes = target.max(self.used_bytes);
            if self.total_bytes == target {
                self.shrink_target = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_pool_admits_until_full() {
        let mut b = SharedBuffer::new(1000, BufferPolicy::StaticPool);
        assert!(b.admit(0, 600));
        b.on_enqueue(600);
        assert!(b.admit(600, 400));
        b.on_enqueue(400);
        assert!(!b.admit(1000, 1));
        assert_eq!(b.refusals, 1);
        b.on_dequeue(600);
        assert!(b.admit(400, 500));
    }

    #[test]
    fn dt_limits_single_queue_to_alpha_fraction() {
        // alpha = 1: a single queue converges to total/2.
        let mut b = SharedBuffer::new(1000, BufferPolicy::DynamicThreshold { alpha: 1.0 });
        let mut q = 0u64;
        loop {
            if !b.admit(q, 10) {
                break;
            }
            b.on_enqueue(10);
            q += 10;
        }
        // Steady state: q <= free = total - q  =>  q <= 500.
        assert!(q <= 500, "q = {q}");
        assert!(q >= 490, "q = {q}"); // and it gets close
    }

    #[test]
    fn dt_competing_queue_shrinks_limit() {
        let mut b = SharedBuffer::new(1000, BufferPolicy::DynamicThreshold { alpha: 1.0 });
        // Another port eats 800 bytes of the pool.
        b.on_enqueue(800);
        // Our empty queue may now only grow to alpha * free = 200.
        assert!(b.admit(0, 100));
        b.on_enqueue(100);
        // free = 100 now; queue holds 100, 100 + 10 > 100 -> refuse.
        assert!(!b.admit(100, 10));
    }

    #[test]
    fn pool_exhaustion_always_refuses() {
        let mut b = SharedBuffer::new(100, BufferPolicy::DynamicThreshold { alpha: 8.0 });
        b.on_enqueue(100);
        assert!(!b.admit(0, 1));
    }

    #[test]
    fn dequeue_releases() {
        let mut b = SharedBuffer::new(100, BufferPolicy::StaticPool);
        b.on_enqueue(60);
        b.on_dequeue(60);
        assert_eq!(b.used_bytes(), 0);
        assert_eq!(b.free_bytes(), 100);
    }

    #[test]
    fn peak_survives_dequeues() {
        let mut b = SharedBuffer::new(100, BufferPolicy::StaticPool);
        b.on_enqueue(60);
        b.on_enqueue(30);
        b.on_dequeue(80);
        b.on_enqueue(10);
        assert_eq!(b.peak_bytes(), 90);
        assert_eq!(b.used_bytes(), 20);
    }

    #[test]
    fn grow_takes_effect_immediately() {
        let mut b = SharedBuffer::new(100, BufferPolicy::StaticPool);
        b.on_enqueue(80);
        b.set_total_bytes(200);
        assert_eq!(b.total_bytes(), 200);
        assert_eq!(b.free_bytes(), 120);
    }

    #[test]
    fn shrink_below_occupancy_ratchets_down() {
        let mut b = SharedBuffer::new(1000, BufferPolicy::StaticPool);
        b.on_enqueue(600);
        b.set_total_bytes(300);
        // Clamped to occupancy: nothing free, nothing admitted.
        assert_eq!(b.total_bytes(), 600);
        assert_eq!(b.free_bytes(), 0);
        assert!(!b.admit(0, 1));
        // Draining ratchets total toward the target...
        b.on_dequeue(200);
        assert_eq!(b.total_bytes(), 400);
        // ...and pins at the target once occupancy passes below it.
        b.on_dequeue(200);
        assert_eq!(b.total_bytes(), 300);
        b.on_dequeue(100);
        assert_eq!(b.total_bytes(), 300);
        assert_eq!(b.used_bytes(), 100);
    }

    #[test]
    fn shrink_then_grow_cancels_ratchet() {
        let mut b = SharedBuffer::new(1000, BufferPolicy::StaticPool);
        b.on_enqueue(600);
        b.set_total_bytes(100);
        b.set_total_bytes(800);
        assert_eq!(b.total_bytes(), 800);
        b.on_dequeue(600);
        assert_eq!(b.total_bytes(), 800);
    }

    #[test]
    #[should_panic]
    fn zero_pool_rejected() {
        SharedBuffer::new(0, BufferPolicy::StaticPool);
    }

    #[test]
    #[should_panic]
    fn bad_alpha_rejected() {
        SharedBuffer::new(10, BufferPolicy::DynamicThreshold { alpha: 0.0 });
    }
}
