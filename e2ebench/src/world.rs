//! Shared set-up: the market, its train/held-out split, scratch state
//! directories, and a WAL-backed collection server configured
//! like `leaksig-cli serve`.

use leaksig_core::payload::PayloadCheck;
use leaksig_core::prelude::PipelineConfig;
use leaksig_device::{
    CollectionServer, IngestConfig, IngestOutcome, RateLimit, Shed, WalConfig, WalStore,
};
use leaksig_net::BatchRecord;
use leaksig_netsim::{Dataset, LabeledPacket, MarketConfig, SensitiveKind};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The paper's operating point: suspicious packets per regeneration.
pub const N: usize = 500;
/// Reservoir capacity `leaksig-cli serve` uses.
pub const SERVE_RESERVOIR: usize = 400;
/// Records per `LEAKBATCH/1` upload.
pub const BATCH: usize = 64;

pub type Collector = CollectionServer<SensitiveKind>;

/// Seed of the one market every run uses, the seed `tests/regen_scale.rs`
/// generates its market from. The market is fixed, like the paper's one
/// captured market, because markets of different seeds differ in
/// content (packet sizes, cluster shapes) enough to move regeneration
/// time by a quarter; `--seed` instead seeds every draw a workload makes
/// over it, so runs of different seeds are replicates of one workload.
pub const MARKET_SEED: u64 = 41;

/// The full-scale market, split in half by capture order: the first
/// half is training traffic, the second half is held out (the split
/// `tests/regen_scale.rs` uses).
pub struct Market {
    pub data: Dataset,
    half: usize,
}

impl Market {
    pub fn generate() -> Market {
        let data = Dataset::generate(MarketConfig::paper(MARKET_SEED));
        let half = data.packets.len() / 2;
        Market { data, half }
    }

    pub fn train(&self) -> &[LabeledPacket] {
        &self.data.packets[..self.half]
    }

    /// Reservoir capacity of the regeneration workloads: room for every
    /// training packet, so the reservoir holds all suspicious training
    /// traffic whatever the seed, and each cycle's sample is a fresh
    /// draw from that one pool.
    pub fn reservoir(&self) -> usize {
        self.half
    }

    pub fn held(&self) -> &[LabeledPacket] {
        &self.data.packets[self.half..]
    }

    /// The §IV-A payload check for this market's device.
    pub fn check(&self) -> PayloadCheck<SensitiveKind> {
        PayloadCheck::new(self.data.model.device.all_values())
    }

    /// The training half as wire images, in [`BATCH`]-record uploads.
    pub fn batches(&self) -> Vec<Vec<BatchRecord>> {
        self.train()
            .chunks(BATCH)
            .map(|c| {
                c.iter()
                    .map(|p| BatchRecord::from_packet(&p.packet))
                    .collect()
            })
            .collect()
    }
}

/// A state directory under the run's scratch root, removed on drop.
pub struct ScratchDir(PathBuf);

static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);

/// Root of every scratch directory: inside the checkout, per process.
fn scratch_root() -> PathBuf {
    PathBuf::from(".bench_tmp").join(format!("run-{}", std::process::id()))
}

impl ScratchDir {
    pub fn new(label: &str) -> ScratchDir {
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        ScratchDir(scratch_root().join(format!("{label}-{n}")))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Bytes held by regular files directly inside the directory.
    pub fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok()?.metadata().ok())
                    .filter(|m| m.is_file())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Remove this process's scratch root, and the shared parent when no
/// other run is using it.
pub fn remove_scratch_root() {
    let root = scratch_root();
    let _ = std::fs::remove_dir_all(&root);
    if let Some(parent) = root.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

/// The raw intake `leaksig-cli serve` uses.
pub fn intake() -> IngestConfig {
    IngestConfig {
        rate: Some(RateLimit {
            burst: 256,
            per_second: 10_000,
        }),
        shed: Shed::Newest,
        ..IngestConfig::default()
    }
}

/// Open (or recover) a `WalStore` in `dir` with the default `WalConfig`
/// and put a collection server on it.
pub fn collector(
    market: &Market,
    dir: &Path,
    capacity: usize,
    seed: u64,
) -> Result<Collector, String> {
    let (store, _) = WalStore::open(
        dir,
        Box::new(leaksig_faults::RealDisk),
        WalConfig::default(),
    )
    .map_err(|e| format!("cannot open state dir {}: {e}", dir.display()))?;
    Ok(CollectionServer::with_store(
        market.check(),
        PipelineConfig::default(),
        capacity,
        seed,
        intake(),
        Box::new(store),
    ))
}

/// Preload `collector` with the training half: in-process `ingest_raw`
/// on one thread, draining the admission queue after every upload-sized
/// chunk. Fails unless every record is admitted.
pub fn preload(collector: &Collector, market: &Market) -> Result<(), String> {
    let mut admitted = 0usize;
    for chunk in market.train().chunks(BATCH) {
        for p in chunk {
            let raw = p.packet.to_bytes();
            let dest = &p.packet.destination;
            if let IngestOutcome::Admitted { .. } = collector.ingest_raw(&raw, dest.ip, dest.port) {
                admitted += 1;
            }
        }
        collector.pump_all();
    }
    collector.flush_state();
    let total = market.train().len();
    if admitted != total {
        return Err(format!("preload admitted {admitted} of {total} records"));
    }
    Ok(())
}
