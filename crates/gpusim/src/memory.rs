//! Device memory tracking.
//!
//! The paper sets the initial batch size to `b_max`, "chosen such that the
//! GPU memory — and utilization — are maximized" (§V-A), and notes that the
//! GPU manager keeps intermediate kernel outputs resident "in order to
//! reduce data movement" (§IV). This module provides the allocation
//! bookkeeping those decisions rest on: a per-device [`MemoryTracker`] with
//! labelled allocations and out-of-memory detection.

/// Error returned when an allocation exceeds the remaining capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Requested bytes.
    pub requested: u64,
    /// Bytes still available.
    pub available: u64,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of device memory: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// Handle to one live allocation (freeing requires the handle, preventing
/// double frees by construction).
#[derive(Debug, PartialEq, Eq)]
pub struct Allocation {
    id: u64,
    bytes: u64,
}

impl Allocation {
    /// Size of this allocation.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Tracks labelled allocations against a fixed capacity.
#[derive(Debug, Clone)]
pub struct MemoryTracker {
    capacity: u64,
    used: u64,
    next_id: u64,
    live: Vec<(u64, &'static str, u64)>,
    peak: u64,
}

impl MemoryTracker {
    /// A tracker over `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            used: 0,
            next_id: 0,
            live: Vec::new(),
            peak: 0,
        }
    }

    /// Total capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes still available.
    pub fn available(&self) -> u64 {
        self.capacity - self.used
    }

    /// High-water mark.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.used as f64 / self.capacity as f64
        }
    }

    /// Allocates `bytes` under `label`.
    pub fn alloc(&mut self, label: &'static str, bytes: u64) -> Result<Allocation, OutOfMemory> {
        if bytes > self.available() {
            return Err(OutOfMemory {
                requested: bytes,
                available: self.available(),
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.used += bytes;
        self.peak = self.peak.max(self.used);
        self.live.push((id, label, bytes));
        Ok(Allocation { id, bytes })
    }

    /// Frees an allocation.
    pub fn free(&mut self, allocation: Allocation) {
        let pos = self
            .live
            .iter()
            .position(|&(id, _, _)| id == allocation.id)
            .expect("allocation not tracked — freed on the wrong device?");
        let (_, _, bytes) = self.live.remove(pos);
        debug_assert_eq!(bytes, allocation.bytes);
        self.used -= bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut m = MemoryTracker::new(1000);
        let a = m.alloc("model", 600).unwrap();
        assert_eq!(m.used(), 600);
        assert_eq!(m.available(), 400);
        assert!((m.utilization() - 0.6).abs() < 1e-12);
        m.free(a);
        assert_eq!(m.used(), 0);
        assert_eq!(m.peak(), 600);
    }

    #[test]
    fn oom_is_reported_not_panicked() {
        let mut m = MemoryTracker::new(100);
        let _keep = m.alloc("model", 80).unwrap();
        let err = m.alloc("batch", 30).unwrap_err();
        assert_eq!(err.requested, 30);
        assert_eq!(err.available, 20);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut m = MemoryTracker::new(1000);
        let a = m.alloc("a", 500).unwrap();
        let b = m.alloc("b", 300).unwrap();
        m.free(a);
        let _c = m.alloc("c", 100).unwrap();
        m.free(b);
        assert_eq!(m.peak(), 800);
    }

    #[test]
    #[should_panic(expected = "not tracked")]
    fn freeing_on_wrong_tracker_panics() {
        let mut a = MemoryTracker::new(100);
        let mut b = MemoryTracker::new(100);
        let alloc = a.alloc("x", 10).unwrap();
        b.free(alloc);
    }

    #[test]
    fn zero_capacity_is_always_oom() {
        let mut m = MemoryTracker::new(0);
        assert!(m.alloc("x", 1).is_err());
        assert_eq!(m.utilization(), 0.0);
    }
}
