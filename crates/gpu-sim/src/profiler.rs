//! Profiler counters and the device-memory accounting facade.
//!
//! Engines allocate logical arrays from a [`Profiler`] and describe every
//! warp-level access to it; the profiler coalesces the access into
//! transactions ([`crate::memory`]) and accumulates `nvprof`-style counters.
//! The figure harness reads [`Counters`] directly (Figures 18, 19, 21) and
//! the cost model turns them into simulated time (Figure 15 and friends).

use crate::config::DeviceConfig;
use crate::memory::{transactions_for_contiguous, transactions_for_warp, AddressSpace};
use ibfs_util::json_struct;

/// `nvprof`-style event counters.
///
/// Transactions are counted at the hardware's native granularity: 128-byte
/// line transactions for coalesced streaming accesses, 32-byte sector
/// transactions for scattered gathers/scatters (Kepler global loads bypass
/// L1 and are served per L2 sector). The `*_bytes` fields record the actual
/// DRAM traffic each transaction moved, which is what the bandwidth-side
/// cost model integrates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Global-memory load transactions (lines or sectors read).
    pub global_load_transactions: u64,
    /// Global-memory store transactions (lines or sectors written).
    pub global_store_transactions: u64,
    /// Bytes moved by load transactions.
    pub global_load_bytes: u64,
    /// Bytes moved by store transactions.
    pub global_store_bytes: u64,
    /// Warp-level load requests.
    pub global_load_requests: u64,
    /// Warp-level store requests.
    pub global_store_requests: u64,
    /// Atomic read-modify-write transactions on global memory.
    pub atomic_transactions: u64,
    /// Shared-memory (CTA cache) load operations.
    pub shared_load_ops: u64,
    /// Shared-memory (CTA cache) store operations.
    pub shared_store_ops: u64,
    /// Lane-instructions executed (thread-granularity work, for the compute
    /// side of the roofline).
    pub lane_instructions: u64,
}

json_struct!(Counters {
    global_load_transactions,
    global_store_transactions,
    global_load_bytes,
    global_store_bytes,
    global_load_requests,
    global_store_requests,
    atomic_transactions,
    shared_load_ops,
    shared_store_ops,
    lane_instructions,
});

impl Counters {
    /// Component-wise difference `self - earlier`; counters are monotone so
    /// this is the activity between two snapshots.
    pub fn delta(&self, earlier: &Counters) -> Counters {
        Counters {
            global_load_transactions: self.global_load_transactions
                - earlier.global_load_transactions,
            global_store_transactions: self.global_store_transactions
                - earlier.global_store_transactions,
            global_load_bytes: self.global_load_bytes - earlier.global_load_bytes,
            global_store_bytes: self.global_store_bytes - earlier.global_store_bytes,
            global_load_requests: self.global_load_requests - earlier.global_load_requests,
            global_store_requests: self.global_store_requests - earlier.global_store_requests,
            atomic_transactions: self.atomic_transactions - earlier.atomic_transactions,
            shared_load_ops: self.shared_load_ops - earlier.shared_load_ops,
            shared_store_ops: self.shared_store_ops - earlier.shared_store_ops,
            lane_instructions: self.lane_instructions - earlier.lane_instructions,
        }
    }

    /// Component-wise sum.
    pub fn add(&self, other: &Counters) -> Counters {
        Counters {
            global_load_transactions: self.global_load_transactions
                + other.global_load_transactions,
            global_store_transactions: self.global_store_transactions
                + other.global_store_transactions,
            global_load_bytes: self.global_load_bytes + other.global_load_bytes,
            global_store_bytes: self.global_store_bytes + other.global_store_bytes,
            global_load_requests: self.global_load_requests + other.global_load_requests,
            global_store_requests: self.global_store_requests + other.global_store_requests,
            atomic_transactions: self.atomic_transactions + other.atomic_transactions,
            shared_load_ops: self.shared_load_ops + other.shared_load_ops,
            shared_store_ops: self.shared_store_ops + other.shared_store_ops,
            lane_instructions: self.lane_instructions + other.lane_instructions,
        }
    }

    /// `gld_transactions_per_request`: the metric of the paper's Figure 19.
    pub fn load_transactions_per_request(&self) -> f64 {
        if self.global_load_requests == 0 {
            0.0
        } else {
            self.global_load_transactions as f64 / self.global_load_requests as f64
        }
    }
}

/// Accounting facade for one simulated device.
#[derive(Clone, Debug)]
pub struct Profiler {
    /// Device parameters (segment size, warp width, ...).
    pub config: DeviceConfig,
    /// Accumulated counters.
    pub counters: Counters,
    space: AddressSpace,
}

impl Profiler {
    /// A profiler for the given device.
    pub fn new(config: DeviceConfig) -> Self {
        Profiler {
            counters: Counters::default(),
            space: AddressSpace::new(config.segment_bytes),
            config,
        }
    }

    /// Allocates a logical device array of `bytes`, returning its base
    /// address. Segment-aligned like `cudaMalloc`.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        self.space.alloc(bytes)
    }

    /// Bytes allocated so far.
    pub fn allocated_bytes(&self) -> u64 {
        self.space.allocated()
    }

    /// Allocation high-water mark, for [`Profiler::release_to`].
    pub fn mem_mark(&self) -> u64 {
        self.space.mark()
    }

    /// Frees every array allocated after `mark` (like `cudaFree` of the
    /// per-request scratch while the graph stays resident). Segment alignment
    /// guarantees re-allocations land at identical addresses, keeping
    /// transaction accounting reproducible across requests.
    pub fn release_to(&mut self, mark: u64) {
        self.space.release_to(mark);
    }

    /// One warp-level *gather* load: lanes read `elem_bytes` at each
    /// address. Scattered accesses are served per 32-byte L2 sector.
    pub fn warp_gather(&mut self, addrs: impl IntoIterator<Item = u64>, elem_bytes: u32) {
        let txns = transactions_for_warp(addrs, elem_bytes, self.config.sector_bytes);
        if txns > 0 {
            self.counters.global_load_requests += 1;
            self.counters.global_load_transactions += txns;
            self.counters.global_load_bytes += txns * self.config.sector_bytes as u64;
        }
    }

    /// One warp-level *scatter* store (sector-granular).
    pub fn warp_scatter(&mut self, addrs: impl IntoIterator<Item = u64>, elem_bytes: u32) {
        let txns = transactions_for_warp(addrs, elem_bytes, self.config.sector_bytes);
        if txns > 0 {
            self.counters.global_store_requests += 1;
            self.counters.global_store_transactions += txns;
            self.counters.global_store_bytes += txns * self.config.sector_bytes as u64;
        }
    }

    /// Load of one contiguous per-vertex block (e.g. a JSA status block or
    /// a BSA word): sector-granular, one request.
    pub fn load_block(&mut self, addr: u64, bytes: u32) {
        let sec = self.config.sector_bytes as u64;
        let txns = (addr + bytes.max(1) as u64 - 1) / sec - addr / sec + 1;
        self.counters.global_load_requests += 1;
        self.counters.global_load_transactions += txns;
        self.counters.global_load_bytes += txns * sec;
    }

    /// Store of one contiguous per-vertex block (sector-granular).
    pub fn store_block(&mut self, addr: u64, bytes: u32) {
        let sec = self.config.sector_bytes as u64;
        let txns = (addr + bytes.max(1) as u64 - 1) / sec - addr / sec + 1;
        self.counters.global_store_requests += 1;
        self.counters.global_store_transactions += txns;
        self.counters.global_store_bytes += txns * sec;
    }

    /// Contiguous load of `count` elements starting at element `start` of the
    /// array at `base` — e.g. a warp streaming an adjacency list. Splits into
    /// warp-sized requests.
    pub fn load_contiguous(&mut self, base: u64, start: u64, count: u64, elem_bytes: u32) {
        if count == 0 {
            return;
        }
        let warp = self.config.warp_size as u64;
        let requests = count.div_ceil(warp);
        let txns = transactions_for_contiguous(
            base,
            start,
            count,
            elem_bytes,
            self.config.segment_bytes,
        );
        self.counters.global_load_requests += requests;
        self.counters.global_load_transactions += txns;
        self.counters.global_load_bytes += txns * self.config.segment_bytes as u64;
    }

    /// Contiguous store of `count` elements starting at element `start`.
    pub fn store_contiguous(&mut self, base: u64, start: u64, count: u64, elem_bytes: u32) {
        if count == 0 {
            return;
        }
        let warp = self.config.warp_size as u64;
        let requests = count.div_ceil(warp);
        let txns = transactions_for_contiguous(
            base,
            start,
            count,
            elem_bytes,
            self.config.segment_bytes,
        );
        self.counters.global_store_requests += requests;
        self.counters.global_store_transactions += txns;
        self.counters.global_store_bytes += txns * self.config.segment_bytes as u64;
    }

    /// A single-lane load (one thread reads one element).
    pub fn lane_load(&mut self, addr: u64, elem_bytes: u32) {
        self.warp_gather(std::iter::once(addr), elem_bytes);
    }

    /// A single-lane store.
    pub fn lane_store(&mut self, addr: u64, elem_bytes: u32) {
        self.warp_scatter(std::iter::once(addr), elem_bytes);
    }

    /// Atomic read-modify-write on global memory from one lane.
    pub fn atomic_rmw(&mut self, _addr: u64, _elem_bytes: u32) {
        self.counters.atomic_transactions += 1;
    }

    /// Warp-coalesced atomics: atomics from one warp to the *same* segment
    /// still serialize per distinct address, so count distinct addresses.
    pub fn warp_atomic(&mut self, addrs: impl IntoIterator<Item = u64>, _elem_bytes: u32) {
        let mut seen = [u64::MAX; 32];
        let mut n = 0usize;
        for a in addrs {
            if !seen[..n].contains(&a) {
                debug_assert!(n < 32);
                seen[n] = a;
                n += 1;
            }
        }
        self.counters.atomic_transactions += n as u64;
    }

    /// Shared-memory (CTA cache) loads.
    pub fn shared_load(&mut self, ops: u64) {
        self.counters.shared_load_ops += ops;
    }

    /// Shared-memory (CTA cache) stores.
    pub fn shared_store(&mut self, ops: u64) {
        self.counters.shared_store_ops += ops;
    }

    /// Records `n` lane-instructions of compute work.
    pub fn lanes(&mut self, n: u64) {
        self.counters.lane_instructions += n;
    }

    /// Snapshot of the counters (for per-phase deltas).
    pub fn snapshot(&self) -> Counters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prof() -> Profiler {
        Profiler::new(DeviceConfig::k40())
    }

    #[test]
    fn gather_counts_requests_and_transactions() {
        let mut p = prof();
        let base = p.alloc(4096);
        // Contiguous 32 × u32 = 128 bytes = 4 × 32-byte sectors.
        p.warp_gather((0..32).map(|i| base + i * 4), 4);
        assert_eq!(p.counters.global_load_requests, 1);
        assert_eq!(p.counters.global_load_transactions, 4);
        assert_eq!(p.counters.global_load_bytes, 4 * 32);
        // Scattered: one sector per lane.
        p.warp_gather((0..32).map(|i| base + i * 128), 4);
        assert_eq!(p.counters.global_load_requests, 2);
        assert_eq!(p.counters.global_load_transactions, 36);
        assert!((p.counters.load_transactions_per_request() - 18.0).abs() < 1e-12);
    }

    #[test]
    fn block_access_is_sector_granular() {
        let mut p = prof();
        let base = p.alloc(4096);
        // A 128-instance JSA block: 128 bytes = 4 sectors.
        p.load_block(base, 128);
        assert_eq!(p.counters.global_load_transactions, 4);
        assert_eq!(p.counters.global_load_bytes, 128);
        // A 16-byte u128 BSA word: 1 sector.
        p.load_block(base + 256, 16);
        assert_eq!(p.counters.global_load_transactions, 5);
        // Stores likewise.
        p.store_block(base, 64);
        assert_eq!(p.counters.global_store_transactions, 2);
        assert_eq!(p.counters.global_store_bytes, 64);
        // A block straddling a sector boundary touches both sectors.
        p.load_block(base + 24, 16);
        assert_eq!(p.counters.global_load_transactions, 7);
    }

    #[test]
    fn contiguous_load_splits_into_warp_requests() {
        let mut p = prof();
        let base = p.alloc(1 << 16);
        // 100 u32s: 4 requests (ceil(100/32)), 4 transactions (400 bytes
        // from an aligned base spans 4 segments).
        p.load_contiguous(base, 0, 100, 4);
        assert_eq!(p.counters.global_load_requests, 4);
        assert_eq!(p.counters.global_load_transactions, 4);
    }

    #[test]
    fn warp_atomic_dedups_same_address() {
        let mut p = prof();
        let base = p.alloc(1024);
        p.warp_atomic(std::iter::repeat_n(base, 32), 4);
        assert_eq!(p.counters.atomic_transactions, 1);
        p.warp_atomic((0..32).map(|i| base + 4 * i), 4);
        assert_eq!(p.counters.atomic_transactions, 33);
    }

    #[test]
    fn delta_and_add_are_inverse() {
        let mut p = prof();
        let base = p.alloc(4096);
        p.lane_load(base, 8);
        let snap = p.snapshot();
        p.lane_store(base, 8);
        p.lanes(7);
        let d = p.counters.delta(&snap);
        assert_eq!(d.global_store_transactions, 1);
        assert_eq!(d.global_load_transactions, 0);
        assert_eq!(d.lane_instructions, 7);
        assert_eq!(snap.add(&d), p.counters);
    }

    #[test]
    fn empty_requests_are_free() {
        let mut p = prof();
        p.warp_gather(std::iter::empty(), 4);
        p.load_contiguous(0, 0, 0, 4);
        assert_eq!(p.counters, Counters::default());
        assert_eq!(p.counters.load_transactions_per_request(), 0.0);
    }

    #[test]
    fn alloc_is_disjoint() {
        let mut p = prof();
        let a = p.alloc(100);
        let b = p.alloc(100);
        assert!(b >= a + 100);
        assert_eq!(p.allocated_bytes(), 256);
    }
}
