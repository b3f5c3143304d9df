//! The inter-shard communication model: payload encoding, exchange
//! patterns, and the latency/bandwidth cost charged into sim-time.
//!
//! Distributed BFS moves two kinds of traffic between levels. After a
//! top-down level each shard *scatters* candidate discoveries to the
//! vertices' owners; before a bottom-up level every shard needs the whole
//! previous frontier, an *allgather* of per-shard frontier bitmaps. Both
//! are priced with the standard α–β model — a fixed per-message latency α
//! plus bytes over bandwidth β — and routed by a pluggable
//! [`ExchangePattern`]:
//!
//! * [`ExchangePattern::AllToAll`] sends every non-empty (src, dst) payload
//!   directly: up to `P·(P−1)` messages per exchange.
//! * [`ExchangePattern::Butterfly`] stages the exchange over a hypercube
//!   (partner at stage `s` is `i XOR 2^s`, per ButterFly BFS,
//!   arXiv:2103.13577): at most `P·log₂P` combined messages per exchange —
//!   fewer messages at the price of forwarding bytes through intermediate
//!   hops. Requires a power-of-two shard count; other counts fall back to
//!   direct all-to-all routing (reported via
//!   [`CommConfig::effective_pattern`]).
//!
//! Payloads pick the smaller of two encodings per destination: a sparse
//! update list (id + instance mask per vertex) or a compressed frontier
//! bitmap (per-instance bit vectors over the destination's owned range,
//! idle instances skipped) — the bitmap wins exactly in the dense
//! bottom-up regime, which is what makes the allgather affordable.

use ibfs::driver::FrontierUpdate;
use ibfs_obs::Registry;
use ibfs_util::{json_enum, json_struct};

/// Bytes of one sparse frontier update on the wire: a `u32` global vertex
/// id plus a `u64` instance mask.
pub const SPARSE_ENTRY_BYTES: u64 = 12;

/// Fixed header per payload (source shard, destination shard, entry count,
/// encoding tag).
pub const PAYLOAD_HEADER_BYTES: u64 = 16;

/// How frontier traffic is routed between shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExchangePattern {
    /// Direct send of every non-empty (src, dst) payload.
    AllToAll,
    /// Hypercube-staged combining exchange (log₂P stages).
    Butterfly,
}

json_enum!(ExchangePattern { AllToAll, Butterfly });

impl ExchangePattern {
    /// Both patterns, in a stable order (test matrices iterate this).
    pub fn all() -> [ExchangePattern; 2] {
        [ExchangePattern::AllToAll, ExchangePattern::Butterfly]
    }

    /// Pattern name for figure tables and CLI output.
    pub fn name(&self) -> &'static str {
        match self {
            ExchangePattern::AllToAll => "alltoall",
            ExchangePattern::Butterfly => "butterfly",
        }
    }
}

/// The α–β communication cost model plus the routing pattern.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommConfig {
    /// Routing pattern.
    pub pattern: ExchangePattern,
    /// Per-message latency α, seconds (defaults to 1 µs — a NVLink/PCIe
    /// round trip is ~1–10 µs).
    pub latency_s: f64,
    /// Link bandwidth β⁻¹, bytes per second (defaults to 12.5 GB/s —
    /// a 100 Gb/s interconnect).
    pub bytes_per_s: f64,
}

impl Default for CommConfig {
    fn default() -> Self {
        CommConfig {
            pattern: ExchangePattern::AllToAll,
            latency_s: 1e-6,
            bytes_per_s: 12.5e9,
        }
    }
}

impl CommConfig {
    /// A config with the given pattern and default α/β.
    pub fn with_pattern(pattern: ExchangePattern) -> Self {
        CommConfig { pattern, ..Default::default() }
    }

    /// The pattern actually routed for `shards` participants: butterfly
    /// staging needs a power-of-two shard count and otherwise degrades to
    /// direct all-to-all sends.
    pub fn effective_pattern(&self, shards: usize) -> ExchangePattern {
        match self.pattern {
            ExchangePattern::Butterfly if shards.is_power_of_two() => ExchangePattern::Butterfly,
            ExchangePattern::Butterfly => ExchangePattern::AllToAll,
            ExchangePattern::AllToAll => ExchangePattern::AllToAll,
        }
    }

    /// Wire time of one message of `bytes` payload.
    fn message_seconds(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bytes_per_s
    }
}

/// One shard-to-shard payload, already reduced to its wire cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Payload {
    /// Distinct vertices carried.
    pub entries: u64,
    /// Bytes on the wire under the chosen encoding (0 when empty).
    pub bytes: u64,
    /// Whether the compressed-bitmap encoding won over the sparse list.
    pub dense: bool,
}

/// Encodes `updates` destined for a shard owning `dest_owned` vertices,
/// choosing the smaller of the sparse list and the compressed bitmap.
///
/// The bitmap encoding carries one bit vector over the destination's owned
/// range per *active* instance (an instance is active if any update names
/// it), so a dense single-instance frontier costs `owned/8` bytes instead
/// of `12·entries`.
pub fn encode_payload(updates: &[FrontierUpdate], dest_owned: usize) -> Payload {
    if updates.is_empty() {
        return Payload::default();
    }
    let entries = updates.len() as u64;
    let union_mask = updates.iter().fold(0u64, |m, u| m | u.mask);
    let sparse = PAYLOAD_HEADER_BYTES + entries * SPARSE_ENTRY_BYTES;
    let bitmap = PAYLOAD_HEADER_BYTES
        + 8 // active-instance mask
        + union_mask.count_ones() as u64 * (dest_owned as u64).div_ceil(8);
    if bitmap < sparse {
        Payload { entries, bytes: bitmap, dense: true }
    } else {
        Payload { entries, bytes: sparse, dense: false }
    }
}

/// Communication activity of one exchange (one level's scatter or
/// allgather).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ExchangeCost {
    /// Messages put on the wire.
    pub messages: u64,
    /// Bytes put on the wire (forwarded bytes counted at every hop).
    pub bytes: u64,
    /// Payloads that chose the compressed-bitmap encoding.
    pub dense_payloads: u64,
    /// Wall-clock seconds the exchange adds to the lockstep level: stages
    /// serialize, shards within a stage run in parallel (max over shards).
    pub seconds: f64,
}

impl ExchangeCost {
    fn absorb_payloads(&mut self, payloads: &[Payload]) {
        for p in payloads {
            self.dense_payloads += u64::from(p.dense);
        }
    }
}

/// Prices a scatter exchange: `matrix[src][dst]` holds the encoded payload
/// from `src` to `dst` (the diagonal is ignored — a shard never messages
/// itself). Returns the wire cost under `config`'s effective pattern.
pub fn scatter_cost(config: &CommConfig, matrix: &[Vec<Payload>]) -> ExchangeCost {
    let shards = matrix.len();
    let mut cost = ExchangeCost::default();
    for row in matrix {
        debug_assert_eq!(row.len(), shards);
        cost.absorb_payloads(row);
    }
    match config.effective_pattern(shards) {
        ExchangePattern::AllToAll => {
            // Each shard sends its non-empty payloads directly, serially;
            // shards send in parallel with each other.
            let mut slowest = 0.0f64;
            for (s, row) in matrix.iter().enumerate() {
                let mut send = 0.0f64;
                for (d, p) in row.iter().enumerate() {
                    if d != s && p.bytes > 0 {
                        cost.messages += 1;
                        cost.bytes += p.bytes;
                        send += config.message_seconds(p.bytes);
                    }
                }
                slowest = slowest.max(send);
            }
            cost.seconds = slowest;
        }
        ExchangePattern::Butterfly => {
            // Hypercube routing: at stage `st`, shard i forwards to partner
            // i ^ (1<<st) every held payload whose destination differs from
            // i in bit `st`. All of a shard's stage traffic rides one
            // combined message. Payloads for the same destination merge by
            // summing bytes (re-encoding at hops is not modeled).
            let stages = shards.trailing_zeros();
            let mut held: Vec<Vec<u64>> = matrix
                .iter()
                .enumerate()
                .map(|(s, row)| {
                    row.iter()
                        .enumerate()
                        .map(|(d, p)| if d == s { 0 } else { p.bytes })
                        .collect()
                })
                .collect();
            for st in 0..stages {
                let bit = 1usize << st;
                let mut moved: Vec<(usize, Vec<u64>)> = Vec::new();
                let mut stage_slowest = 0.0f64;
                for (i, hold) in held.iter_mut().enumerate() {
                    let partner = i ^ bit;
                    let mut outgoing = vec![0u64; shards];
                    let mut msg_bytes = 0u64;
                    for d in 0..shards {
                        if (d ^ i) & bit != 0 && hold[d] > 0 {
                            msg_bytes += hold[d];
                            outgoing[d] = hold[d];
                            hold[d] = 0;
                        }
                    }
                    if msg_bytes > 0 {
                        cost.messages += 1;
                        cost.bytes += msg_bytes;
                        stage_slowest = stage_slowest.max(config.message_seconds(msg_bytes));
                        moved.push((partner, outgoing));
                    }
                }
                for (partner, outgoing) in moved {
                    for d in 0..shards {
                        held[partner][d] += outgoing[d];
                    }
                }
                cost.seconds += stage_slowest;
            }
        }
    }
    cost
}

/// Prices an allgather exchange: `payloads[s]` is shard `s`'s encoded
/// frontier snapshot, which must reach every other shard.
pub fn allgather_cost(config: &CommConfig, payloads: &[Payload]) -> ExchangeCost {
    let shards = payloads.len();
    let mut cost = ExchangeCost::default();
    cost.absorb_payloads(payloads);
    match config.effective_pattern(shards) {
        ExchangePattern::AllToAll => {
            let mut slowest = 0.0f64;
            for p in payloads {
                if p.bytes == 0 {
                    continue;
                }
                let peers = (shards - 1) as u64;
                cost.messages += peers;
                cost.bytes += p.bytes * peers;
                slowest = slowest.max(peers as f64 * config.message_seconds(p.bytes));
            }
            cost.seconds = slowest;
        }
        ExchangePattern::Butterfly => {
            // Recursive doubling: at stage `st` each shard swaps everything
            // accumulated so far with partner i ^ (1<<st); accumulated
            // volume doubles per stage.
            let stages = shards.trailing_zeros();
            let mut acc: Vec<u64> = payloads.iter().map(|p| p.bytes).collect();
            for st in 0..stages {
                let bit = 1usize << st;
                let mut stage_slowest = 0.0f64;
                let prev = acc.clone();
                for (i, bytes) in prev.iter().enumerate() {
                    if *bytes > 0 {
                        cost.messages += 1;
                        cost.bytes += bytes;
                        stage_slowest = stage_slowest.max(config.message_seconds(*bytes));
                    }
                    acc[i ^ bit] += bytes;
                }
                cost.seconds += stage_slowest;
            }
        }
    }
    cost
}

/// One level's communication activity, for per-level volume reporting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LevelComm {
    /// BFS level the exchange belongs to.
    pub level: u32,
    /// Messages put on the wire at this level.
    pub messages: u64,
    /// Bytes put on the wire at this level.
    pub bytes: u64,
    /// Compressed-bitmap payloads at this level.
    pub dense_payloads: u64,
    /// Exchange seconds added to the lockstep level.
    pub seconds: f64,
}

json_struct!(LevelComm { level, messages, bytes, dense_payloads, seconds });

/// Accumulated communication statistics of a sharded run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommStats {
    /// Total messages.
    pub messages: u64,
    /// Total bytes (hop-counted).
    pub bytes: u64,
    /// Total compressed-bitmap payloads.
    pub dense_payloads: u64,
    /// Total exchange seconds charged into sim-time.
    pub exchange_seconds: f64,
    /// Per-level breakdown, in level order (levels with no exchange — the
    /// whole frontier local — are still recorded with zero volume).
    pub per_level: Vec<LevelComm>,
}

json_struct!(CommStats { messages, bytes, dense_payloads, exchange_seconds, per_level });

impl CommStats {
    /// Folds one level's exchange activity into the totals.
    pub fn push_level(&mut self, level: u32, cost: &ExchangeCost) {
        self.messages += cost.messages;
        self.bytes += cost.bytes;
        self.dense_payloads += cost.dense_payloads;
        self.exchange_seconds += cost.seconds;
        self.per_level.push(LevelComm {
            level,
            messages: cost.messages,
            bytes: cost.bytes,
            dense_payloads: cost.dense_payloads,
            seconds: cost.seconds,
        });
    }

    /// Merges another run's stats (serve-side: many waves, one registry).
    pub fn merge(&mut self, other: &CommStats) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.dense_payloads += other.dense_payloads;
        self.exchange_seconds += other.exchange_seconds;
        self.per_level.extend_from_slice(&other.per_level);
    }

    /// Records the stats into the `ibfs_cluster_comm_*` metric families,
    /// all seven of them even when there was no traffic.
    pub fn record(&self, registry: &Registry) {
        registry.counter("ibfs_cluster_comm_messages_total").add(self.messages);
        registry.counter("ibfs_cluster_comm_bytes_total").add(self.bytes);
        registry
            .counter("ibfs_cluster_comm_dense_payloads_total")
            .add(self.dense_payloads);
        registry
            .counter("ibfs_cluster_comm_exchanges_total")
            .add(self.per_level.len() as u64);
        let seconds = registry.histogram("ibfs_cluster_comm_exchange_seconds");
        let messages = registry.histogram("ibfs_cluster_comm_level_messages");
        let bytes = registry.histogram("ibfs_cluster_comm_level_bytes");
        for lc in &self.per_level {
            seconds.record(lc.seconds);
            messages.record(lc.messages as f64);
            bytes.record(lc.bytes as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(vertex: u32, mask: u64) -> FrontierUpdate {
        FrontierUpdate { vertex, mask }
    }

    fn sparse_payload(entries: u64) -> Payload {
        Payload {
            entries,
            bytes: if entries == 0 { 0 } else { PAYLOAD_HEADER_BYTES + entries * SPARSE_ENTRY_BYTES },
            dense: false,
        }
    }

    #[test]
    fn sparse_encoding_wins_for_small_frontiers() {
        let p = encode_payload(&[upd(3, 1), upd(9, 3)], 4096);
        assert!(!p.dense);
        assert_eq!(p.entries, 2);
        assert_eq!(p.bytes, PAYLOAD_HEADER_BYTES + 2 * SPARSE_ENTRY_BYTES);
    }

    #[test]
    fn bitmap_encoding_wins_for_dense_single_instance_frontiers() {
        // 1000 of 2048 owned vertices, one instance: bitmap is 256 bytes
        // vs 12000 sparse.
        let updates: Vec<FrontierUpdate> = (0..1000).map(|v| upd(v, 1)).collect();
        let p = encode_payload(&updates, 2048);
        assert!(p.dense);
        assert_eq!(p.bytes, PAYLOAD_HEADER_BYTES + 8 + 256);
    }

    #[test]
    fn empty_payload_is_free() {
        assert_eq!(encode_payload(&[], 1024), Payload::default());
    }

    fn full_matrix(shards: usize, entries: u64) -> Vec<Vec<Payload>> {
        (0..shards)
            .map(|s| {
                (0..shards)
                    .map(|d| if d == s { Payload::default() } else { sparse_payload(entries) })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn all_to_all_scatter_counts_every_pair() {
        let cfg = CommConfig::default();
        let cost = scatter_cost(&cfg, &full_matrix(4, 5));
        assert_eq!(cost.messages, 12); // 4 × 3
        assert_eq!(cost.bytes, 12 * (PAYLOAD_HEADER_BYTES + 5 * SPARSE_ENTRY_BYTES));
        // Each shard serializes 3 sends; shards run in parallel.
        let per = cfg.latency_s + (PAYLOAD_HEADER_BYTES + 60) as f64 / cfg.bytes_per_s;
        assert!((cost.seconds - 3.0 * per).abs() < 1e-15);
    }

    #[test]
    fn butterfly_scatter_sends_fewer_messages_at_four_shards() {
        let a2a = scatter_cost(&CommConfig::default(), &full_matrix(4, 5));
        let bf = scatter_cost(
            &CommConfig::with_pattern(ExchangePattern::Butterfly),
            &full_matrix(4, 5),
        );
        // P·log₂P = 8 < P·(P−1) = 12.
        assert_eq!(bf.messages, 8);
        assert!(bf.messages < a2a.messages);
        // Forwarding costs bytes: stage 1 carries stage-0 transit traffic.
        assert!(bf.bytes >= a2a.bytes);
    }

    #[test]
    fn butterfly_delivers_all_bytes_to_final_destinations() {
        // 8 shards, only shard 0 has traffic (to every other shard): the
        // hypercube still routes everything in 3 stages.
        let mut matrix = vec![vec![Payload::default(); 8]; 8];
        for d in 1..8 {
            matrix[0][d] = sparse_payload(2);
        }
        let cost = scatter_cost(
            &CommConfig::with_pattern(ExchangePattern::Butterfly),
            &matrix,
        );
        // Stage 0: 0→1 carries dests {1,3,5,7}; stage 1: 0→2 {2,6}, 1→3
        // {3,7}; stage 2: 0→4 {4}, 1→5 {5}, 2→6 {6}, 3→7 {7}.
        assert_eq!(cost.messages, 7);
        let payload = PAYLOAD_HEADER_BYTES + 2 * SPARSE_ENTRY_BYTES;
        // dests at hamming distance 1 travel 1 hop, distance 2 two hops,
        // distance 3 three hops: 1+1+1 + 2+2+2 + 3 = 12 payload-hops.
        assert_eq!(cost.bytes, 12 * payload);
    }

    #[test]
    fn butterfly_falls_back_to_direct_sends_for_non_power_of_two() {
        let cfg = CommConfig::with_pattern(ExchangePattern::Butterfly);
        assert_eq!(cfg.effective_pattern(3), ExchangePattern::AllToAll);
        assert_eq!(cfg.effective_pattern(4), ExchangePattern::Butterfly);
        let direct = scatter_cost(&CommConfig::default(), &full_matrix(3, 4));
        let fallen = scatter_cost(&cfg, &full_matrix(3, 4));
        assert_eq!(direct, fallen);
    }

    #[test]
    fn allgather_all_to_all_replicates_every_snapshot() {
        let payloads = vec![sparse_payload(3); 4];
        let cost = allgather_cost(&CommConfig::default(), &payloads);
        assert_eq!(cost.messages, 12);
        assert_eq!(cost.bytes, 12 * (PAYLOAD_HEADER_BYTES + 3 * SPARSE_ENTRY_BYTES));
    }

    #[test]
    fn allgather_butterfly_uses_log_rounds() {
        let payloads = vec![sparse_payload(3); 8];
        let cost = allgather_cost(
            &CommConfig::with_pattern(ExchangePattern::Butterfly),
            &payloads,
        );
        // 8 shards × 3 stages = 24 messages vs 56 direct.
        assert_eq!(cost.messages, 24);
        let direct = allgather_cost(&CommConfig::default(), &payloads);
        assert_eq!(direct.messages, 56);
        assert!(cost.messages < direct.messages);
        // Same replication factor overall: every byte reaches 7 peers.
        assert_eq!(direct.bytes, 7 * 8 * (PAYLOAD_HEADER_BYTES + 36));
        assert_eq!(cost.bytes, 7 * 8 * (PAYLOAD_HEADER_BYTES + 36));
    }

    #[test]
    fn exchange_seconds_scale_with_latency_and_bandwidth() {
        let slow = CommConfig { latency_s: 1e-3, bytes_per_s: 1e6, ..Default::default() };
        let fast = CommConfig::default();
        let m = full_matrix(4, 100);
        assert!(scatter_cost(&slow, &m).seconds > scatter_cost(&fast, &m).seconds);
    }

    #[test]
    fn comm_stats_accumulate_and_record() {
        let mut stats = CommStats::default();
        stats.push_level(1, &ExchangeCost { messages: 3, bytes: 100, dense_payloads: 1, seconds: 0.5 });
        stats.push_level(2, &ExchangeCost { messages: 2, bytes: 50, dense_payloads: 0, seconds: 0.25 });
        assert_eq!(stats.messages, 5);
        assert_eq!(stats.bytes, 150);
        assert_eq!(stats.per_level.len(), 2);
        assert!((stats.exchange_seconds - 0.75).abs() < 1e-12);

        let registry = Registry::new();
        stats.record(&registry);
        assert_eq!(registry.counter("ibfs_cluster_comm_messages_total").value(), 5);
        assert_eq!(registry.counter("ibfs_cluster_comm_bytes_total").value(), 150);
        assert_eq!(registry.counter("ibfs_cluster_comm_exchanges_total").value(), 2);
    }

    #[test]
    fn eager_registration_produces_zero_valued_families() {
        let registry = Registry::new();
        CommStats::default().record(&registry);
        let snap = registry.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        for want in [
            "ibfs_cluster_comm_messages_total",
            "ibfs_cluster_comm_bytes_total",
            "ibfs_cluster_comm_dense_payloads_total",
            "ibfs_cluster_comm_exchanges_total",
            "ibfs_cluster_comm_exchange_seconds",
            "ibfs_cluster_comm_level_messages",
            "ibfs_cluster_comm_level_bytes",
        ] {
            assert!(names.contains(&want), "missing {want}");
        }
        assert_eq!(registry.counter("ibfs_cluster_comm_messages_total").value(), 0);
    }
}
