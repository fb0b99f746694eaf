//! Set-up shared by `refresh` and `protect`: a collector preloaded with
//! the training half, one published N-packet generation, and device
//! stores that synced it over TCP.

use crate::world::{self, Market, ScratchDir, N};
use leaksig_device::{RegenerateOutcome, RetryPolicy, SignatureServer, SignatureStore, SyncClient};
use leaksig_net::{NetConfig, NetServer, TcpTransport};
use std::sync::Arc;

pub struct Device {
    pub store: SignatureStore,
    pub client: SyncClient<TcpTransport>,
}

/// Fields drop in declaration order: the listener stops before the
/// collector goes, and the state directory is removed last.
pub struct Fleet {
    _server: NetServer,
    pub devices: Vec<Device>,
    pub collector: Arc<world::Collector>,
    pub publisher: Arc<SignatureServer>,
    /// SHA-1 of the generation published during set-up.
    pub generation_sha1: String,
    _dir: ScratchDir,
}

/// Regenerate from `N` reservoir packets and publish; the published
/// version, or why not.
pub fn regenerate(
    collector: &world::Collector,
    publisher: &SignatureServer,
) -> Result<u64, String> {
    match collector.regenerate(N, publisher) {
        RegenerateOutcome::Published { version, .. } => Ok(version),
        other => Err(format!("regeneration not published: {other:?}")),
    }
}

pub fn build(market: &Market, seed: u64, devices: usize) -> Result<Fleet, String> {
    let dir = ScratchDir::new("fleet");
    let collector = Arc::new(world::collector(
        market,
        dir.path(),
        market.reservoir(),
        seed,
    )?);
    world::preload(&collector, market)?;
    let publisher = Arc::new(SignatureServer::new());
    let server = NetServer::spawn(
        collector.clone(),
        publisher.clone(),
        "127.0.0.1:0",
        NetConfig::default(),
    )
    .map_err(|e| format!("cannot bind loopback: {e}"))?;
    let version = regenerate(&collector, &publisher)?;
    let (_, text) = publisher.fetch(0).ok_or("publisher holds no generation")?;
    let devices = (0..devices)
        .map(|i| {
            let policy = RetryPolicy {
                jitter_seed: seed ^ i as u64,
                ..RetryPolicy::default()
            };
            let mut device = Device {
                store: SignatureStore::new(),
                client: SyncClient::new(TcpTransport::new(server.addr()), policy),
            };
            let report = device.client.sync(&device.store);
            if !report.converged() || device.store.version() != version {
                return Err(format!(
                    "device {i} did not install v{version}: {:?}",
                    report.outcome
                ));
            }
            Ok(device)
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Fleet {
        _server: server,
        devices,
        collector,
        publisher,
        generation_sha1: leaksig_hash::sha1_hex(text.as_bytes()),
        _dir: dir,
    })
}
