//! Persistence of the device state across restarts.
//!
//! The on-device app must survive a reboot without re-prompting for every
//! previously-decided flow and without re-fetching signatures. Two small
//! text formats:
//!
//! ```text
//! LEAKPOLICY/1
//! allow jp.co.mobika.puzzle 3
//! block com.zemi.news 7
//! ```
//!
//! and the signature store snapshot, which is the `leaksig-core` wire
//! format prefixed by a version line:
//!
//! ```text
//! LEAKSTORE/1 5
//! LEAKSIG/1
//! ...
//! ```
//!
//! On-disk durability is handled by [`SnapshotVault`]: checksummed,
//! generation-numbered snapshot files (`LEAKSNAP/1` header) written
//! through `leaksig-faults`' shared temp-sync-rename helper
//! ([`atomic_replace`]) on a [`DiskIo`], so a crash at any point leaves
//! either the old or the new snapshot fully intact, and a restore path
//! that walks generations newest-first, discarding anything the checksum
//! disowns, until it finds the last known good state. Because all vault
//! I/O goes through [`DiskIo`], the vault is crash-tested with the same
//! `FaultyDisk` model as the WAL store.

use crate::policy::{PolicyEngine, UserChoice};
use crate::store::{SignatureStore, StoreHealth};
use leaksig_faults::{atomic_replace, sweep_temps, DiskIo, RealDisk};
use std::path::{Path, PathBuf};

const POLICY_MAGIC: &str = "LEAKPOLICY/1";
const STORE_MAGIC: &str = "LEAKSTORE/1";
const SNAP_MAGIC: &str = "LEAKSNAP/1";

/// Persistence failure with a user-facing message.
#[derive(Debug)]
pub struct PersistError(pub String);

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for PersistError {}

/// Serialize remembered decisions. Only `*Always` choices persist; `Once`
/// answers were never remembered to begin with.
pub fn encode_policy(policy: &PolicyEngine) -> String {
    let mut out = String::from(POLICY_MAGIC);
    out.push('\n');
    let mut rows = policy.remembered_rows();
    rows.sort();
    for (app, sig, allow) in rows {
        out.push_str(if allow { "allow " } else { "block " });
        out.push_str(&app);
        out.push(' ');
        out.push_str(&sig.to_string());
        out.push('\n');
    }
    out
}

/// Parse a policy snapshot into a fresh engine.
pub fn decode_policy(text: &str) -> Result<PolicyEngine, PersistError> {
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some(POLICY_MAGIC) {
        return Err(PersistError(format!("missing {POLICY_MAGIC} header")));
    }
    let mut policy = PolicyEngine::new();
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split(' ');
        let (verb, app, sig) = (parts.next(), parts.next(), parts.next());
        let (Some(verb), Some(app), Some(sig), None) = (verb, app, sig, parts.next()) else {
            return Err(PersistError(format!("malformed policy line: {line:?}")));
        };
        let sig: u32 = sig
            .parse()
            .map_err(|_| PersistError(format!("bad signature id in {line:?}")))?;
        let choice = match verb {
            "allow" => UserChoice::AllowAlways,
            "block" => UserChoice::BlockAlways,
            other => return Err(PersistError(format!("unknown verb {other:?}"))),
        };
        policy.resolve(app, sig, choice);
    }
    Ok(policy)
}

/// Snapshot a signature store (version + installed wire text).
pub fn encode_store(store: &SignatureStore) -> String {
    format!("{STORE_MAGIC} {}\n{}", store.version(), store.wire_text())
}

/// Restore a store snapshot.
pub fn decode_store(text: &str) -> Result<SignatureStore, PersistError> {
    let (header, body) = text
        .split_once('\n')
        .ok_or_else(|| PersistError("empty store snapshot".to_string()))?;
    let version: u64 = header
        .strip_prefix(STORE_MAGIC)
        .and_then(|rest| rest.trim().parse().ok())
        .ok_or_else(|| PersistError(format!("bad store header: {header:?}")))?;
    let store = SignatureStore::new();
    store
        .install(version, body)
        .map_err(|e| PersistError(format!("bad signature payload: {e}")))?;
    Ok(store)
}

/// Checksummed, generation-numbered, crash-safe snapshot storage for the
/// signature store.
///
/// Each save writes `store.<generation>.snap`:
///
/// ```text
/// LEAKSNAP/1 <generation> <body-byte-length> <sha1-hex-of-body>
/// LEAKSTORE/1 <version>
/// LEAKSIG/1
/// ...
/// ```
///
/// through [`atomic_replace`] (temp file, fsync, rename), so the final
/// path only ever holds a complete snapshot. Every file operation goes
/// through a [`DiskIo`], the same boundary [`crate::WalStore`] uses, so
/// the vault runs against `leaksig-faults`' crash and sick-disk model.
/// Restore walks generations newest-first and verifies length, checksum
/// and decode before trusting one; a torn or bit-rotted newest snapshot
/// therefore *rolls back* to the previous generation instead of
/// corrupting the device. The newest three generations are retained.
pub struct SnapshotVault {
    dir: PathBuf,
    disk: Box<dyn DiskIo>,
}

/// Good generations a [`SnapshotVault`] retains after a save (older ones
/// are pruned).
const KEEP: u64 = 3;

/// What [`SnapshotVault::restore_store`] found on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreReport {
    /// Generation actually restored (`None` = nothing usable on disk).
    pub generation: Option<u64>,
    /// Snapshot files that failed verification and were skipped.
    pub skipped_corrupt: usize,
    /// Health the restored store reports.
    pub health: StoreHealth,
}

impl RestoreReport {
    /// Whether a newer-but-damaged snapshot was bypassed in favour of an
    /// older good one.
    pub fn rolled_back(&self) -> bool {
        self.skipped_corrupt > 0 && self.generation.is_some()
    }
}

impl SnapshotVault {
    /// A vault rooted at `dir` (created if absent) on the real
    /// filesystem.
    pub fn new(dir: impl Into<PathBuf>) -> Result<SnapshotVault, PersistError> {
        SnapshotVault::open(dir, Box::new(RealDisk))
    }

    /// A vault rooted at `dir` (created if absent) doing all its I/O
    /// through `disk`. Sweeps the `.tmp` debris of interrupted saves, so
    /// a process that crashes on every save cannot grow the directory
    /// without bound.
    pub fn open(
        dir: impl Into<PathBuf>,
        mut disk: Box<dyn DiskIo>,
    ) -> Result<SnapshotVault, PersistError> {
        let dir = dir.into();
        disk.create_dir_all(&dir)
            .map_err(|e| PersistError(format!("cannot create {}: {e}", dir.display())))?;
        sweep_temps(disk.as_mut(), &dir);
        Ok(SnapshotVault { dir, disk })
    }

    fn snap_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("store.{generation}.snap"))
    }

    /// Generations currently on disk, ascending (content unverified).
    pub fn generations(&mut self) -> Vec<u64> {
        let mut gens: Vec<u64> = self
            .disk
            .read_dir(&self.dir)
            .unwrap_or_default()
            .iter()
            .filter_map(|path| parse_generation(path))
            .collect();
        gens.sort_unstable();
        gens.dedup();
        gens
    }

    /// Persist `store` as the next generation. Returns the generation
    /// written. On `Err` the previous generations are untouched.
    pub fn save_store(&mut self, store: &SignatureStore) -> Result<u64, PersistError> {
        let generation = self.generations().last().copied().unwrap_or(0) + 1;
        let body = encode_store(store);
        let mut snap = format!(
            "{SNAP_MAGIC} {generation} {} {}\n",
            body.len(),
            leaksig_hash::sha1_hex(body.as_bytes())
        );
        snap.push_str(&body);

        let path = self.snap_path(generation);
        atomic_replace(self.disk.as_mut(), &path, snap.as_bytes())
            .map_err(|e| PersistError(format!("cannot save {}: {e}", path.display())))?;
        // Retention, best effort: a leftover old generation only costs
        // bytes.
        for gen in self.generations() {
            if gen + KEEP <= generation {
                let _ = self.disk.remove(&self.snap_path(gen));
            }
        }
        Ok(generation)
    }

    /// Restore the newest verifiable snapshot.
    ///
    /// Walks generations newest-first; each candidate must pass the
    /// `LEAKSNAP/1` header check, the length + SHA-1 verification, and
    /// [`decode_store`] (which includes the deploy gate). The first
    /// survivor wins. When nothing on disk is usable the device restarts
    /// on an empty store — marked [`StoreHealth::Corrupt`] if damaged
    /// snapshots were present (so the gate can fail closed), or
    /// [`StoreHealth::Empty`] on a genuinely fresh device.
    pub fn restore_store(&mut self) -> (SignatureStore, RestoreReport) {
        let mut skipped = 0usize;
        for gen in self.generations().into_iter().rev() {
            let restored = self
                .disk
                .read(&self.snap_path(gen))
                .map_err(|e| PersistError(e.to_string()))
                .and_then(|bytes| decode_store(verify_snapshot(&bytes, gen)?));
            match restored {
                Ok(store) => {
                    let report = RestoreReport {
                        generation: Some(gen),
                        skipped_corrupt: skipped,
                        health: store.health(),
                    };
                    return (store, report);
                }
                Err(_) => skipped += 1,
            }
        }
        let store = SignatureStore::new();
        if skipped > 0 {
            store.mark_corrupt();
        }
        let report = RestoreReport {
            generation: None,
            skipped_corrupt: skipped,
            health: store.health(),
        };
        (store, report)
    }
}

/// `store.<gen>.snap` → `gen`.
fn parse_generation(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let rest = name.strip_prefix("store.")?;
    let gen = rest.strip_suffix(".snap")?;
    gen.parse().ok()
}

/// Verify a `LEAKSNAP/1` file: header shape, generation echo, declared
/// length, SHA-1. Returns the trusted body text.
fn verify_snapshot(bytes: &[u8], expect_gen: u64) -> Result<&str, PersistError> {
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| PersistError("snapshot has no header line".to_string()))?;
    let header = std::str::from_utf8(&bytes[..newline])
        .map_err(|_| PersistError("snapshot header is not UTF-8".to_string()))?;
    let body = &bytes[newline + 1..];

    let mut parts = header.split_whitespace();
    if parts.next() != Some(SNAP_MAGIC) {
        return Err(PersistError(format!("missing {SNAP_MAGIC} header")));
    }
    let gen: u64 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| PersistError("bad generation in snapshot header".to_string()))?;
    if gen != expect_gen {
        return Err(PersistError(format!(
            "snapshot header claims generation {gen}, file name says {expect_gen}"
        )));
    }
    let len: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| PersistError("bad length in snapshot header".to_string()))?;
    let digest = parts
        .next()
        .ok_or_else(|| PersistError("missing digest in snapshot header".to_string()))?;
    if parts.next().is_some() {
        return Err(PersistError("trailing junk in snapshot header".to_string()));
    }
    if body.len() != len {
        return Err(PersistError(format!(
            "snapshot body length {} does not match declared {len} (torn write?)",
            body.len()
        )));
    }
    if !leaksig_hash::verify_sha1_hex(body, digest) {
        return Err(PersistError("snapshot checksum mismatch".to_string()));
    }
    std::str::from_utf8(body).map_err(|_| PersistError("snapshot body is not UTF-8".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::SignatureServer;
    use leaksig_core::prelude::*;
    use leaksig_faults::{CrashFlavor, DiskFaultControls, FaultyDisk};
    use leaksig_http::RequestBuilder;
    use std::net::Ipv4Addr;

    #[test]
    fn policy_round_trip() {
        let mut p = PolicyEngine::new();
        p.resolve("jp.co.a.game", 1, UserChoice::AllowAlways);
        p.resolve("jp.co.a.game", 2, UserChoice::BlockAlways);
        p.resolve("com.b.news", 1, UserChoice::BlockAlways);
        p.resolve("com.c.memo", 9, UserChoice::AllowOnce); // not persisted

        let text = encode_policy(&p);
        let back = decode_policy(&text).unwrap();
        assert_eq!(back.remembered_count(), 3);
        use crate::policy::Verdict;
        assert_eq!(back.decide("jp.co.a.game", Some(1)), Verdict::Forward);
        assert_eq!(back.decide("jp.co.a.game", Some(2)), Verdict::Block);
        assert_eq!(back.decide("com.b.news", Some(1)), Verdict::Block);
        assert_eq!(back.decide("com.c.memo", Some(9)), Verdict::Prompt);
    }

    #[test]
    fn policy_rejects_malformed() {
        assert!(decode_policy("").is_err());
        assert!(decode_policy("LEAKPOLICY/1\nallow app\n").is_err());
        assert!(decode_policy("LEAKPOLICY/1\nmaybe app 3\n").is_err());
        assert!(decode_policy("LEAKPOLICY/1\nallow app x\n").is_err());
        assert!(decode_policy("LEAKPOLICY/1\nallow app 3 extra\n").is_err());
    }

    #[test]
    fn store_round_trip() {
        let mk = |slot: &str| {
            RequestBuilder::get("/getad")
                .query("imei", "355195000000017")
                .query("slot", slot)
                .destination(Ipv4Addr::new(203, 0, 113, 3), 80, "ad-maker.info")
                .build()
        };
        let server = SignatureServer::new();
        server
            .publish(&generate_signatures(&[&mk("1"), &mk("2")], &{
                let mut cfg = PipelineConfig::default();
                cfg.signature.include_singletons = false;
                cfg
            }))
            .unwrap();
        let store = SignatureStore::new();
        store.sync(&server).unwrap();

        let snapshot = encode_store(&store);
        let restored = decode_store(&snapshot).unwrap();
        assert_eq!(restored.version(), store.version());
        assert_eq!(restored.signature_count(), store.signature_count());
        assert!(restored.match_packet(&mk("42")).is_some());
    }

    #[test]
    fn store_rejects_malformed() {
        assert!(decode_store("").is_err());
        assert!(decode_store("WAT 1\nLEAKSIG/1\n").is_err());
        assert!(decode_store("LEAKSTORE/1 x\nLEAKSIG/1\n").is_err());
        assert!(decode_store("LEAKSTORE/1 3\nnot-signatures\n").is_err());
    }

    fn armed_store(version: u64) -> SignatureStore {
        let mk = |slot: &str| {
            RequestBuilder::get("/getad")
                .query("imei", "355195000000017")
                .query("slot", slot)
                .destination(Ipv4Addr::new(203, 0, 113, 3), 80, "ad-maker.info")
                .build()
        };
        let set = generate_signatures(&[&mk("1"), &mk("2")], &{
            let mut cfg = PipelineConfig::default();
            cfg.signature.include_singletons = false;
            cfg
        });
        let store = SignatureStore::new();
        store
            .install(version, &leaksig_core::wire::encode(&set))
            .unwrap();
        store
    }

    fn temp_vault_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "leaksig-vault-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn vault_round_trip_and_retention() {
        let dir = temp_vault_dir("roundtrip");
        let mut vault = SnapshotVault::new(&dir).unwrap();

        // No snapshots yet: a fresh device, not a corrupt one.
        let (empty, report) = vault.restore_store();
        assert_eq!(report.generation, None);
        assert_eq!(report.health, StoreHealth::Empty);
        assert_eq!(empty.version(), 0);

        for v in 1..=5u64 {
            let store = armed_store(v);
            assert_eq!(vault.save_store(&store).unwrap(), v);
        }
        // Retention keeps the 3 newest generations.
        assert_eq!(vault.generations(), vec![3, 4, 5]);

        let (restored, report) = vault.restore_store();
        assert_eq!(report.generation, Some(5));
        assert!(!report.rolled_back());
        assert_eq!(restored.version(), 5);
        assert_eq!(restored.health(), StoreHealth::Fresh);
        assert!(restored.signature_count() >= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn temp_files(dir: &Path) -> Vec<PathBuf> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "tmp"))
            .collect()
    }

    #[test]
    fn torn_newest_snapshot_rolls_back_to_last_known_good() {
        let dir = temp_vault_dir("torn");
        let mut vault = SnapshotVault::new(&dir).unwrap();
        vault.save_store(&armed_store(1)).unwrap();
        vault.save_store(&armed_store(2)).unwrap();

        // Half the bytes of generation 2 survive (a non-atomic copy, a
        // dying flash cell): restore must catch it via the checksum.
        let path = dir.join("store.2.snap");
        let mut bytes = std::fs::read(&path).unwrap();
        leaksig_faults::truncate_bytes(&mut bytes, 500);
        std::fs::write(&path, &bytes).unwrap();

        let (restored, report) = vault.restore_store();
        assert_eq!(report.generation, Some(1), "rolled back past the torn file");
        assert_eq!(report.skipped_corrupt, 1);
        assert!(report.rolled_back());
        assert_eq!(restored.version(), 1);
        assert_eq!(restored.health(), StoreHealth::Fresh);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash before, during or after any I/O step of a save restores
    /// the old or the new generation in full, and the next open leaves
    /// no `.tmp` behind.
    #[test]
    fn crash_at_any_save_step_keeps_old_or_new_generation() {
        let dir = temp_vault_dir("crashsave");
        for flavor in CrashFlavor::ALL {
            // write .tmp, sync, rename: the three mutating steps.
            for step in 0..3 {
                let _ = std::fs::remove_dir_all(&dir);
                SnapshotVault::new(&dir)
                    .unwrap()
                    .save_store(&armed_store(1))
                    .unwrap();
                let (disk, ctl) = FaultyDisk::new(RealDisk);
                let mut vault = SnapshotVault::open(&dir, Box::new(disk)).unwrap();
                ctl.arm_crash(ctl.mutations() + step, flavor);
                assert!(vault.save_store(&armed_store(2)).is_err());
                assert!(ctl.crashed());

                let mut vault = SnapshotVault::new(&dir).unwrap();
                let (restored, report) = vault.restore_store();
                let label = format!("crash-{} at step {step}", flavor.label());
                let want = if step == 2 && flavor == CrashFlavor::After {
                    2
                } else {
                    1
                };
                assert_eq!(restored.version(), want, "{label}");
                assert_eq!(
                    report.skipped_corrupt, 0,
                    "{label}: atomic protocol, no damage"
                );
                assert_eq!(restored.health(), StoreHealth::Fresh, "{label}");
                assert!(temp_files(&dir).is_empty(), "{label}: debris swept on open");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_loop_does_not_grow_the_vault_unboundedly() {
        let dir = temp_vault_dir("crashloop");
        // A process that dies between temp-write and rename on *every*
        // save, restarting (reopening the vault) each time. Without the
        // open-time sweep each round would strand one more `.tmp`.
        for round in 0..20 {
            let (disk, ctl) = FaultyDisk::new(RealDisk);
            let mut vault = SnapshotVault::open(&dir, Box::new(disk)).unwrap();
            ctl.arm_crash(ctl.mutations() + 2, CrashFlavor::Before);
            assert!(vault.save_store(&armed_store(round)).is_err());
            let files = std::fs::read_dir(&dir).unwrap().count();
            assert!(files <= 1, "round {round}: {files} files on disk");
        }
        // And the debris never confuses restore.
        let mut vault = SnapshotVault::new(&dir).unwrap();
        let (_, report) = vault.restore_store();
        assert_eq!(report.generation, None);
        assert_eq!(report.skipped_corrupt, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A sick but live disk (failing fsync, full volume, short writes)
    /// fails the save, keeps the previous generation restorable, and
    /// leaves no temp file.
    #[test]
    fn sick_disk_fails_the_save_and_keeps_the_previous_generation() {
        type Toggle = fn(&DiskFaultControls, bool);
        let toggles: [(&str, Toggle); 3] = [
            ("fsync", DiskFaultControls::set_fail_sync),
            ("enospc", DiskFaultControls::set_fail_space),
            ("shortwrite", DiskFaultControls::set_short_writes),
        ];
        for (label, toggle) in toggles {
            let dir = temp_vault_dir(&format!("sick-{label}"));
            let (disk, ctl) = FaultyDisk::new(RealDisk);
            let mut vault = SnapshotVault::open(&dir, Box::new(disk)).unwrap();
            vault.save_store(&armed_store(1)).unwrap();

            toggle(&ctl, true);
            assert!(vault.save_store(&armed_store(2)).is_err(), "{label}");
            assert!(temp_files(&dir).is_empty(), "{label}: temp file left");
            let (restored, report) = vault.restore_store();
            assert_eq!(report.generation, Some(1), "{label}");
            assert_eq!(restored.version(), 1, "{label}");
            assert_eq!(restored.health(), StoreHealth::Fresh, "{label}");

            // Healed, the next save lands as generation 2.
            toggle(&ctl, false);
            assert_eq!(vault.save_store(&armed_store(2)).unwrap(), 2, "{label}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A `LEAKSNAP/1` snapshot written by an earlier release of the vault
    /// (before it moved onto `DiskIo`) still restores, and saving the
    /// restored store writes the same bytes again.
    #[test]
    fn snapshot_from_an_earlier_release_restores_byte_identically() {
        const FIXTURE: &[u8] = b"LEAKSNAP/1 1 142 2ed06ebe1d874492fdd6c84c8ec9f2217cf3157b\n\
            LEAKSTORE/1 7\n\
            LEAKSIG/1\n\
            sig 0 2\n\
            host ad-maker.info\n\
            tok rline 474554202f67657461643f696d65693d33353531393530303030303030313726736c6f743d 0\n\
            end\n";
        let dir = temp_vault_dir("fixture");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("store.1.snap"), FIXTURE).unwrap();

        let mut vault = SnapshotVault::new(&dir).unwrap();
        let (restored, report) = vault.restore_store();
        assert_eq!(report.generation, Some(1));
        assert_eq!(report.skipped_corrupt, 0);
        assert_eq!(restored.version(), 7);
        assert_eq!(restored.health(), StoreHealth::Fresh);
        assert_eq!(restored.signature_count(), 1);
        assert_eq!(restored.wire_text(), armed_store(7).wire_text());

        assert_eq!(vault.save_store(&restored).unwrap(), 2);
        let rewritten = std::fs::read(dir.join("store.2.snap")).unwrap();
        let expected =
            String::from_utf8_lossy(FIXTURE).replacen("LEAKSNAP/1 1 ", "LEAKSNAP/1 2 ", 1);
        assert_eq!(String::from_utf8_lossy(&rewritten), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_generations_corrupt_restores_empty_and_flags_it() {
        let dir = temp_vault_dir("allbad");
        let mut vault = SnapshotVault::new(&dir).unwrap();
        vault.save_store(&armed_store(1)).unwrap();
        vault.save_store(&armed_store(2)).unwrap();
        // Bit-rot both snapshots on disk.
        for gen in vault.generations() {
            let path = dir.join(format!("store.{gen}.snap"));
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            std::fs::write(&path, &bytes).unwrap();
        }
        let (restored, report) = vault.restore_store();
        assert_eq!(report.generation, None);
        assert_eq!(report.skipped_corrupt, 2);
        assert_eq!(report.health, StoreHealth::Corrupt);
        assert_eq!(restored.version(), 0, "no corrupt snapshot was trusted");
        assert_eq!(restored.health(), StoreHealth::Corrupt);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_header_lies_are_rejected() {
        let dir = temp_vault_dir("lies");
        let mut vault = SnapshotVault::new(&dir).unwrap();
        vault.save_store(&armed_store(1)).unwrap();
        let path = dir.join("store.1.snap");
        let original = std::fs::read_to_string(&path).unwrap();

        // A file renamed to masquerade as a different generation fails
        // the generation echo check.
        std::fs::write(dir.join("store.7.snap"), &original).unwrap();
        let (restored, report) = vault.restore_store();
        assert_eq!(report.generation, Some(1), "impostor generation skipped");
        assert_eq!(report.skipped_corrupt, 1);
        assert_eq!(restored.version(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
