//! The end-to-end pipeline of Fig. 3a: payload check → sample → cluster →
//! signature generation → detection → evaluation.

use crate::analyze::drop_dominated;
use crate::cluster::{agglomerate, Dendrogram};
use crate::detect::{Detector, MatchMode};
use crate::distance::{DistanceConfig, PacketDistance, PacketFeatures};
use crate::eval::{tally, Counts, Rates};
use crate::matrix::pairwise;
use crate::par::{chunk_len, run_jobs};
use crate::signature::{
    build_signature, field_bytes, rline_view, select_tokens, Field, SelectedToken, SignatureConfig,
    SignatureSet,
};
use leaksig_compress::Lzss;
use leaksig_http::HttpPacket;
use leaksig_textdist::{meet_tokens, string_tokens};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// Wall-clock milliseconds spent in each stage of one generation /
/// regeneration pass. Filled in by [`generate_signatures_counted`] (the
/// first four stages) and [`regeneration_pass`] (pruning); the CLI prints
/// one event line per pass so operators can see *where* a slow
/// regeneration went without attaching a profiler.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Per-packet feature extraction (parse + per-field self-compression).
    pub features_ms: f64,
    /// Pairwise NCD distance matrix.
    pub matrix_ms: f64,
    /// Agglomerative clustering.
    pub cluster_ms: f64,
    /// Token extraction, dedup, and the deploy gate.
    pub signatures_ms: f64,
    /// Benign-traffic validation, the structural gate and
    /// dominated-signature removal.
    pub prune_ms: f64,
}

impl StageTimings {
    /// Sum of all recorded stages.
    pub fn total_ms(&self) -> f64 {
        self.features_ms + self.matrix_ms + self.cluster_ms + self.signatures_ms + self.prune_ms
    }

    /// The one-line form the CLI prints after a pass.
    pub fn event_line(&self) -> String {
        format!(
            "stage times: features {:.0}ms, matrix {:.0}ms, cluster {:.0}ms, \
             signatures {:.0}ms, prune {:.0}ms (total {:.0}ms)",
            self.features_ms,
            self.matrix_ms,
            self.cluster_ms,
            self.signatures_ms,
            self.prune_ms,
            self.total_ms()
        )
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Extract [`PacketFeatures`] for every packet across all cores.
///
/// Feature extraction self-compresses three content fields per packet, so
/// at regeneration scale it costs O(n) compressor runs — embarrassingly
/// parallel, and before this ran serially it was the second-largest slice
/// of a pass after the matrix. Contiguous chunks keep cache locality and
/// the join re-assembles in order, so output order (and therefore every
/// downstream id) is identical to the serial map.
fn extract_features<C: leaksig_compress::Compressor + Sync>(
    dist: &PacketDistance<C>,
    packets: &[&HttpPacket],
) -> Vec<PacketFeatures> {
    /// Below this, thread spawn overhead beats the win.
    const SERIAL_BELOW: usize = 64;
    let chunk = chunk_len(packets.len(), SERIAL_BELOW);
    let parts = run_jobs(packets.chunks(chunk).collect(), |part| {
        part.iter().map(|p| dist.features(p)).collect::<Vec<_>>()
    });
    let mut out = Vec::with_capacity(packets.len());
    for part in parts {
        out.extend(part);
    }
    out
}

/// Which dendrogram nodes become signature candidates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterSelection {
    /// One signature per cluster of a single horizontal cut.
    Cut(f64),
    /// §IV-E as written: walk the whole dendrogram and emit a signature
    /// for **every** node (leaf and internal) whose merge distance is at
    /// most `max_distance` — "select the top of cluster Ci ∈ C ... remove
    /// Ci from C and repeat for all clusters". Near-root nodes mix
    /// unrelated modules and their candidate tokens degrade to protocol
    /// boilerplate (killed by the anchor filter); mid-level nodes that
    /// join *different destinations leaking the same identifier* refine
    /// down to the bare identifier value, which is what detects leak
    /// destinations that were never sampled.
    AllNodes {
        /// Skip nodes merged above this distance (they mix unrelated
        /// modules and their tokens die in the filters anyway).
        max_distance: f64,
    },
}

/// Validation of candidate signatures against normal traffic.
///
/// The signature server necessarily holds the normal group — the payload
/// check that formed the suspicious sample produced it — so it can vet
/// each candidate against a slice of benign packets before publication.
/// Signatures matching more than `max_hits` of a `sample`-packet benign
/// sample are discarded. Validation is sampled, not exhaustive, so a
/// residue of weakly-matching signatures survives and grows with N —
/// reproducing the paper's rising false-positive curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpValidation {
    /// Number of normal packets sampled for vetting.
    pub sample: usize,
    /// Maximum tolerated matches within the vetting sample.
    pub max_hits: usize,
}

impl Default for FpValidation {
    fn default() -> Self {
        FpValidation {
            sample: 2000,
            max_hits: 40,
        }
    }
}

/// Everything configurable about one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Distance configuration.
    pub distance: DistanceConfig,
    /// Signature-generation configuration.
    pub signature: SignatureConfig,
    /// Node selection. `d_pkt` ranges over `[0, 6]`; same-module pairs sit
    /// below ~1.2, same-identifier cross-module pairs around 2.2–3.3,
    /// unrelated pairs above ~3.4.
    pub selection: ClusterSelection,
    /// Seed for drawing the `N`-packet sample from the suspicious group.
    pub sample_seed: u64,
    /// Optional benign-traffic vetting of candidate signatures.
    pub fp_validation: Option<FpValidation>,
    /// Refuse to emit signatures carrying Error-level audit findings
    /// (§VI's `POST *` hazard, re-checked on the finished artifact).
    /// Default on; turn off only to study unfiltered generation.
    pub deploy_gate: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            distance: DistanceConfig::default(),
            signature: SignatureConfig::default(),
            selection: ClusterSelection::AllNodes { max_distance: 3.5 },
            sample_seed: 0xC0FFEE,
            fp_validation: Some(FpValidation::default()),
            deploy_gate: true,
        }
    }
}

/// Drop signatures that match more than `max_hits` of `normal_sample`.
///
/// The whole set is compiled once ([`crate::engine::CompiledDetector`])
/// and each benign packet is scanned in a single pass that credits every
/// matching signature — O(sample × |packet|) instead of
/// O(signatures × tokens × sample × |packet|).
pub fn prune_against_normal(
    set: &mut SignatureSet,
    normal_sample: &[&HttpPacket],
    max_hits: usize,
) {
    if set.is_empty() || normal_sample.is_empty() {
        return;
    }
    let engine = crate::engine::CompiledDetector::compile(set, MatchMode::Conjunction);
    let mut scratch = engine.scratch();
    let mut hits = vec![0usize; set.len()];
    for p in normal_sample {
        for idx in engine.matched_indices(&mut scratch, p) {
            hits[idx] += 1;
        }
    }
    let mut hits = hits.iter();
    set.signatures.retain(|_| *hits.next().unwrap() <= max_hits);
}

/// A generated signature set plus the clustering diagnostics the
/// experiment driver needs — returned together so callers never recompute
/// the O(n²) distance matrix just to count clusters.
#[derive(Debug, Clone, Default)]
pub struct GeneratedSignatures {
    /// The signatures that survived the filters and the deploy gate.
    pub set: SignatureSet,
    /// Cluster count under the configured selection: the cut size for
    /// [`ClusterSelection::Cut`], the full dendrogram node count
    /// (`2n − 1`) for [`ClusterSelection::AllNodes`].
    pub clusters: usize,
    /// Where the wall-clock went (`prune_ms` is zero from
    /// [`generate_signatures_counted`]; [`regeneration_pass`] fills it in).
    pub timings: StageTimings,
}

/// Cluster a packet sample and emit conjunction signatures (§IV-D +
/// §IV-E). `packets` is the sampled suspicious group `P ⊂ H`.
pub fn generate_signatures(packets: &[&HttpPacket], config: &PipelineConfig) -> SignatureSet {
    generate_signatures_with(Lzss::default(), packets, config)
}

/// [`generate_signatures`] under an explicit NCD compressor (the ablation
/// benchmark swaps in LZW).
pub fn generate_signatures_with<C: leaksig_compress::Compressor + Sync>(
    compressor: C,
    packets: &[&HttpPacket],
    config: &PipelineConfig,
) -> SignatureSet {
    generate_signatures_counted(compressor, packets, config).set
}

/// [`generate_signatures_with`], also reporting the cluster count from
/// the **same** dendrogram (features, matrix and clustering are computed
/// exactly once).
pub fn generate_signatures_counted<C: leaksig_compress::Compressor + Sync>(
    compressor: C,
    packets: &[&HttpPacket],
    config: &PipelineConfig,
) -> GeneratedSignatures {
    if packets.is_empty() {
        return GeneratedSignatures {
            set: SignatureSet::default(),
            clusters: 0,
            timings: StageTimings::default(),
        };
    }
    let mut timings = StageTimings::default();
    let dist = PacketDistance::new(compressor, config.distance);
    let t = Instant::now();
    let features = extract_features(&dist, packets);
    timings.features_ms = ms_since(t);
    let t = Instant::now();
    let matrix = pairwise(&dist, &features);
    timings.matrix_ms = ms_since(t);
    let t = Instant::now();
    let dendrogram = agglomerate(&matrix);
    timings.cluster_ms = ms_since(t);
    let t = Instant::now();
    let cluster_count = match config.selection {
        ClusterSelection::Cut(threshold) => dendrogram.cut_nodes(threshold).len(),
        // A fixed cut is not meaningful under `AllNodes`: report the full
        // dendrogram node count.
        ClusterSelection::AllNodes { .. } => 2 * packets.len() - 1,
    };
    let mut set =
        signatures_from_dendrogram(packets, &dendrogram, config.selection, &config.signature);

    // Deploy gate: under the default configuration the generation filters
    // above leave nothing for this to catch — the gate is the invariant
    // that no Error-level signature leaves the pipeline regardless of how
    // `config.signature` was loosened. It deliberately audits against the
    // *default* policy, not the caller's: a caller who lowers
    // `min_anchor_len` is experimenting with generation, which is fine,
    // but shipping §VI boilerplate-only signatures additionally requires
    // `deploy_gate: false`.
    if config.deploy_gate {
        retain_structurally_clean(&mut set);
        // The publish/install gate also refuses proved-dead signatures
        // (A001/A002), so gated output must clear them too. Safe here
        // because this function never prunes against benign traffic; the
        // pruning paths defer the whole gate until after validation.
        drop_dominated(&mut set, MatchMode::Conjunction);
    }
    timings.signatures_ms = ms_since(t);
    GeneratedSignatures {
        set,
        clusters: cluster_count,
        timings,
    }
}

/// The invariant tokens of one method group of a dendrogram node.
struct GroupTokens<'a> {
    method: &'a str,
    /// Lowest sample index in the group: the reference member whose
    /// fields give the tokens' order hints.
    first: usize,
    size: usize,
    /// Per field, in [`Field::ALL`] order: the complete (untruncated) set
    /// of maximal common tokens, longest first.
    fields: [Vec<&'a [u8]>; 3],
}

/// A node's groups, sorted by method.
type NodeTokens<'a> = Vec<GroupTokens<'a>>;

/// A method group of a selected node that passed [`select_tokens`],
/// waiting for its turn in the selection order.
struct Candidate<'a> {
    method: &'a str,
    size: usize,
    tokens: Vec<SelectedToken<'a>>,
}

/// The token table entry of a node merging `a` and `b`: groups of the same
/// method meet field by field, the rest carry over. Both children are
/// consumed; nothing is cloned.
fn merge_node_tokens<'a>(a: NodeTokens<'a>, b: NodeTokens<'a>, min_len: usize) -> NodeTokens<'a> {
    let mut out = a;
    for g in b {
        match out.iter_mut().find(|o| o.method == g.method) {
            Some(o) => {
                o.first = o.first.min(g.first);
                o.size += g.size;
                o.fields = [0, 1, 2].map(|f| meet_tokens(&o.fields[f], &g.fields[f], min_len));
            }
            None => out.push(g),
        }
    }
    out.sort_by(|x, y| x.method.cmp(y.method));
    out
}

/// The signatures stage: token extraction and emission over a finished
/// dendrogram (§IV-E), before the deploy gate.
///
/// Every selected node is partitioned by request method (token
/// extraction is per content field, so a cluster mixing GET and POST
/// members of one module would lose the identifier token: it sits in the
/// request line for GETs but the body for POSTs), and each method group
/// becomes a signature candidate. Candidates are emitted in selection
/// order — leaves then merges for [`ClusterSelection::AllNodes`], cut
/// order for [`ClusterSelection::Cut`], groups by method — and a candidate
/// whose token set an earlier one already produced is skipped; ids number
/// the survivors.
///
/// The tokens come from one bottom-up pass over the merges: each node's
/// per-group token sets are the [`meet_tokens`] of its children's, so a
/// packet is scanned once per merge on its path rather than once per
/// selected ancestor. Children are moved into their parent; only nodes
/// that are selected or below a selected node are built.
pub fn signatures_from_dendrogram(
    packets: &[&HttpPacket],
    dendrogram: &Dendrogram,
    selection: ClusterSelection,
    config: &SignatureConfig,
) -> SignatureSet {
    let rlines: Vec<String> = packets.iter().map(|p| rline_view(p)).collect();
    // The signatures are built after the pass has freed its working set,
    // so the long-lived set is not scattered among transient allocations.
    let accepted = distinct_candidates(packets, &rlines, dendrogram, selection, config);
    let signatures = accepted
        .iter()
        .enumerate()
        .map(|(id, (cluster, c))| {
            let members = dendrogram.members(*cluster);
            let hosts = members
                .iter()
                .map(|&i| packets[i])
                .filter(|p| p.request_line.method.as_str() == c.method)
                .map(|p| p.destination.host.as_str());
            build_signature(id as u32, &c.tokens, c.size, hosts)
        })
        .collect();
    SignatureSet { signatures }
}

/// The bottom-up pass of [`signatures_from_dendrogram`]: every selected
/// node's candidates in selection order, each with its node id, minus
/// those whose token set an earlier candidate already has.
fn distinct_candidates<'a>(
    packets: &[&'a HttpPacket],
    rlines: &'a [String],
    dendrogram: &Dendrogram,
    selection: ClusterSelection,
    config: &SignatureConfig,
) -> Vec<(usize, Candidate<'a>)> {
    let n = dendrogram.leaves();
    let merges = dendrogram.merges();
    let order: Vec<usize> = match selection {
        ClusterSelection::Cut(threshold) => dendrogram.cut_nodes(threshold),
        ClusterSelection::AllNodes { max_distance } => (0..n)
            .chain(
                (0..merges.len())
                    .filter(|&m| merges[m].distance <= max_distance)
                    .map(|m| n + m),
            )
            .collect(),
    };
    let total = n + merges.len();
    let mut selected = vec![false; total];
    for &node in &order {
        selected[node] = true;
    }
    // A node is built when it or an ancestor is selected. A parent's id
    // exceeds its children's, so one reverse sweep settles every node.
    let mut needed = selected.clone();
    for (m, merge) in merges.iter().enumerate().rev() {
        if needed[n + m] {
            needed[merge.a] = true;
            needed[merge.b] = true;
        }
    }

    let min_len = config.token.min_len;
    let reference = |i: usize| Field::ALL.map(|field| field_bytes(packets[i], &rlines[i], field));
    let mut table: Vec<Option<NodeTokens>> = Vec::with_capacity(total);
    // Per selected node, once built: its candidates.
    let mut candidates: Vec<Option<Vec<Candidate>>> = (0..total).map(|_| None).collect();
    let mut accepted = Vec::new();
    let mut seen_token_sets: std::collections::HashSet<Vec<(Field, &[u8])>> =
        std::collections::HashSet::new();
    let mut emitted = 0usize;
    for node in 0..total {
        if !needed[node] {
            table.push(None);
            continue;
        }
        let groups = if node < n {
            vec![GroupTokens {
                method: packets[node].request_line.method.as_str(),
                first: node,
                size: 1,
                fields: reference(node).map(|bytes| string_tokens(bytes, min_len)),
            }]
        } else {
            let merge = &merges[node - n];
            let a = table[merge.a].take().expect("child built before parent");
            let b = table[merge.b].take().expect("child built before parent");
            merge_node_tokens(a, b, min_len)
        };
        if selected[node] {
            candidates[node] = Some(
                groups
                    .iter()
                    .filter_map(|g| {
                        let sets = [&g.fields[0][..], &g.fields[1][..], &g.fields[2][..]];
                        select_tokens(sets, reference(g.first), g.size, config).map(|tokens| {
                            Candidate {
                                method: g.method,
                                size: g.size,
                                tokens,
                            }
                        })
                    })
                    .collect(),
            );
        }
        table.push(Some(groups));

        // Settle every candidate whose turn in the selection order has come.
        while let Some(ready) = order.get(emitted).and_then(|&v| candidates[v].take()) {
            let cluster = order[emitted];
            emitted += 1;
            for c in ready {
                // Overlapping dendrogram nodes produce many duplicates.
                let key: Vec<(Field, &[u8])> = c.tokens.iter().map(|&(f, b, _)| (f, b)).collect();
                if seen_token_sets.insert(key) {
                    accepted.push((cluster, c));
                }
            }
        }
    }
    accepted
}

/// One complete regeneration pass: §IV generation over `sample`,
/// benign-traffic pruning against `normal` (when the config enables
/// validation; an empty `normal` prunes nothing), the structural gate,
/// and dominated-signature removal — the exact sequence the collection
/// server runs outside its state lock and the experiment driver runs
/// before detection. Factored out so a regeneration supervisor can run
/// the identical pass on a worker thread (and on bisected sub-samples)
/// without duplicating the ordering, which is load-bearing: pruning
/// must precede [`drop_dominated`], or a general signature that
/// validation rejects could first swallow its specific children.
///
/// Returns the set together with the pass's [`StageTimings`] (all five
/// stages, pruning included).
pub fn regeneration_pass(
    sample: &[&HttpPacket],
    normal: &[&HttpPacket],
    config: &PipelineConfig,
) -> GeneratedSignatures {
    regeneration_pass_with(Lzss::default(), sample, normal, config)
}

/// [`regeneration_pass`] under an explicit NCD compressor (the ablation
/// benchmark swaps in LZW).
pub fn regeneration_pass_with<C: leaksig_compress::Compressor + Sync>(
    compressor: C,
    sample: &[&HttpPacket],
    normal: &[&HttpPacket],
    config: &PipelineConfig,
) -> GeneratedSignatures {
    let gen_config = PipelineConfig {
        deploy_gate: false,
        ..config.clone()
    };
    let mut generated = generate_signatures_counted(compressor, sample, &gen_config);
    let set = &mut generated.set;
    let t = Instant::now();
    if let Some(v) = config.fp_validation {
        prune_against_normal(set, normal, v.max_hits);
    }
    if config.deploy_gate {
        retain_structurally_clean(set);
    }
    drop_dominated(set, MatchMode::Conjunction);
    generated.timings.prune_ms = ms_since(t);
    generated
}

/// The deploy gate's structural half: drop every signature carrying an
/// Error-level per-signature audit finding under the *default* policy
/// (see the gate comment in `generate_signatures_counted` for why the
/// caller's loosened `config.signature` is deliberately not consulted).
fn retain_structurally_clean(set: &mut SignatureSet) {
    let audit_cfg = crate::audit::AuditConfig::default();
    set.signatures.retain(|sig| {
        !crate::audit::signature_structure(sig, &audit_cfg)
            .iter()
            .any(|d| d.severity == crate::audit::Severity::Error)
    });
}

/// Outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// Raw confusion counts.
    pub counts: Counts,
    /// Rates derived from the counts.
    pub rates: Rates,
    /// Number of clusters the cut produced (≥ number of signatures).
    pub clusters: usize,
    /// The generated signature set.
    pub signatures: SignatureSet,
    /// Per-stage wall-clock of the generation pass (including pruning).
    pub timings: StageTimings,
}

/// Run the full §V experiment: sample `n` packets from the suspicious
/// group (per `sensitive`), generate signatures, apply them to the entire
/// dataset, and evaluate with the paper's formulas.
pub fn run_experiment(
    packets: &[HttpPacket],
    sensitive: &[bool],
    n: usize,
    config: &PipelineConfig,
) -> ExperimentOutcome {
    let refs: Vec<&HttpPacket> = packets.iter().collect();
    run_experiment_refs(&refs, sensitive, n, config)
}

/// [`run_experiment`] over borrowed packets (avoids cloning a large
/// dataset into a contiguous slice).
pub fn run_experiment_refs(
    packets: &[&HttpPacket],
    sensitive: &[bool],
    n: usize,
    config: &PipelineConfig,
) -> ExperimentOutcome {
    run_experiment_with(Lzss::default(), packets, sensitive, n, config)
}

/// [`run_experiment_refs`] under an explicit NCD compressor (the
/// ablation benchmark swaps in LZW).
pub fn run_experiment_with<C: leaksig_compress::Compressor + Sync>(
    compressor: C,
    packets: &[&HttpPacket],
    sensitive: &[bool],
    n: usize,
    config: &PipelineConfig,
) -> ExperimentOutcome {
    assert_eq!(packets.len(), sensitive.len());

    // Sample N suspicious packets.
    let mut suspicious: Vec<usize> = (0..packets.len()).filter(|&i| sensitive[i]).collect();
    let mut rng = StdRng::seed_from_u64(config.sample_seed);
    suspicious.shuffle(&mut rng);
    suspicious.truncate(n);
    let sample: Vec<&HttpPacket> = suspicious.iter().map(|&i| packets[i]).collect();
    let mut sampled = vec![false; packets.len()];
    for &i in &suspicious {
        sampled[i] = true;
    }

    // The benign vetting sample, drawn only when validation is on.
    let normal_sample: Vec<&HttpPacket> = match config.fp_validation {
        Some(v) => {
            let mut normal: Vec<usize> = (0..packets.len()).filter(|&i| !sensitive[i]).collect();
            let mut vrng = StdRng::seed_from_u64(config.sample_seed ^ 0x4650);
            normal.shuffle(&mut vrng);
            normal.truncate(v.sample);
            normal.iter().map(|&i| packets[i]).collect()
        }
        None => Vec::new(),
    };
    // The candidate-node count is the diagnostic here (under `AllNodes`
    // selection a fixed cut is not meaningful); the pass reports it from
    // the same dendrogram the signatures came from.
    let generated = regeneration_pass_with(compressor, &sample, &normal_sample, config);

    // Detect over the full dataset.
    let detector = Detector::new(generated.set);
    let detected = detector.scan(packets.iter().copied());

    let counts = tally(sensitive, &detected, &sampled);
    ExperimentOutcome {
        rates: counts.rates(),
        counts,
        clusters: generated.clusters,
        signatures: SignatureSet {
            signatures: detector.signatures().to_vec(),
        },
        timings: generated.timings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaksig_http::RequestBuilder;
    use std::net::Ipv4Addr;

    /// Hand-built mini market: two leaking ad modules + benign traffic.
    fn mini_dataset() -> (Vec<HttpPacket>, Vec<bool>) {
        let mut packets = Vec::new();
        let mut labels = Vec::new();
        // Module A: imei leak to ad-maker.info.
        for slot in 0..30 {
            packets.push(
                RequestBuilder::get("/getad")
                    .query("imei", "355195000000017")
                    .query("slot", &slot.to_string())
                    .query("fmt", "json")
                    .destination(Ipv4Addr::new(203, 0, 113, 10), 80, "ad-maker.info")
                    .build(),
            );
            labels.push(true);
        }
        // Module B: hashed android id to minor network.
        for seq in 0..30 {
            packets.push(
                RequestBuilder::post("/imp")
                    .form("udid", "dd72cbaeab8d2e442d92e90c2e829e4b")
                    .form("seq", &format!("{seq:05}"))
                    .destination(Ipv4Addr::new(198, 51, 100, 7), 80, "imp.zeikato.net")
                    .build(),
            );
            labels.push(true);
        }
        // Benign content + API traffic.
        for i in 0..90 {
            packets.push(
                RequestBuilder::get("/img")
                    .query("file", &format!("{i:06x}.png"))
                    .destination(
                        Ipv4Addr::new(210, 12, (i % 7) as u8, 9),
                        80,
                        "cdn.mobika.jp",
                    )
                    .build(),
            );
            labels.push(false);
        }
        (packets, labels)
    }

    #[test]
    fn experiment_on_mini_dataset_detects_modules() {
        let (packets, labels) = mini_dataset();
        let out = run_experiment(&packets, &labels, 20, &PipelineConfig::default());
        assert!(out.counts.sample_n == 20);
        assert!(
            out.rates.true_positive > 0.8,
            "TP {} with {} signatures from {} clusters",
            out.rates.true_positive,
            out.signatures.len(),
            out.clusters
        );
        assert!(
            out.rates.false_positive < 0.05,
            "FP {}",
            out.rates.false_positive
        );
        assert!(out.rates.false_negative < 0.2);
    }

    #[test]
    fn clustering_separates_the_two_modules() {
        let (packets, _) = mini_dataset();
        let sample: Vec<&HttpPacket> = packets[..60].iter().collect();
        let cfg = PipelineConfig::default();
        let set = generate_signatures(&sample, &cfg);
        // At least one signature per module; identifiers captured.
        assert!(set.len() >= 2, "got {} signatures", set.len());
        let all_tokens: Vec<&[u8]> = set
            .signatures
            .iter()
            .flat_map(|s| s.tokens.iter().map(|t| t.bytes()))
            .collect();
        let has = |needle: &[u8]| {
            all_tokens
                .iter()
                .any(|t| t.windows(needle.len()).any(|w| w == needle))
        };
        assert!(has(b"355195000000017"), "imei token missing");
        assert!(
            has(b"dd72cbaeab8d2e442d92e90c2e829e4b"),
            "md5 token missing"
        );
    }

    #[test]
    fn zero_sample_yields_no_signatures_and_zero_rates() {
        let (packets, labels) = mini_dataset();
        let out = run_experiment(&packets, &labels, 0, &PipelineConfig::default());
        assert!(out.signatures.is_empty());
        assert_eq!(out.rates.true_positive, 0.0);
        assert_eq!(out.rates.false_positive, 0.0);
        assert_eq!(out.rates.false_negative, 1.0);
    }

    #[test]
    fn sample_larger_than_suspicious_group_is_clamped() {
        let (packets, labels) = mini_dataset();
        let out = run_experiment(&packets, &labels, 10_000, &PipelineConfig::default());
        assert_eq!(out.counts.sample_n, 60);
    }

    /// §VI regression: with the generation filters loosened so that
    /// boilerplate-only (`POST *`-style) candidates survive extraction,
    /// the deploy gate still refuses them by default; only the explicit
    /// `deploy_gate: false` override lets them through.
    #[test]
    fn deploy_gate_refuses_boilerplate_only_signatures() {
        // Two POSTs sharing nothing beyond the 8-byte "POST /x?" prefix:
        // under the default anchor filter this cluster yields nothing.
        let mk = |v: &str| {
            RequestBuilder::post(&format!("/x?{v}"))
                .destination(Ipv4Addr::LOCALHOST, 80, "x.jp")
                .build()
        };
        let (a, b) = (mk("aaaaaa111111"), mk("zzzzzz999999"));
        let mut loose = PipelineConfig::default();
        loose.signature.min_anchor_len = 3;
        loose.signature.boilerplate.clear();
        // Singletons tokenize whole (specific) request lines and would
        // rightly pass the gate; the §VI hazard is the cluster signature.
        loose.signature.include_singletons = false;

        let gated = generate_signatures(&[&a, &b], &loose);
        assert!(
            gated.is_empty(),
            "gate must drop §VI candidates: {:?}",
            gated.signatures
        );

        let ungated = generate_signatures(&[&a, &b], &{
            let mut cfg = loose.clone();
            cfg.deploy_gate = false;
            cfg
        });
        assert!(
            !ungated.is_empty(),
            "override must admit what generation produced"
        );
        // And what the override admitted is exactly what the audit flags.
        assert!(crate::audit::deploy_check(&ungated).is_err());
    }

    /// The default publish path on clean input produces sets with zero
    /// Error-level findings — the gate never bites on the happy path.
    /// The gated artifact is [`regeneration_pass`]'s output (what the
    /// collection server actually publishes): raw generation under
    /// `AllNodes` may legitimately carry dominance pairs that the
    /// pass's dominated-signature removal then strips.
    #[test]
    fn default_generation_passes_the_deploy_gate() {
        let (packets, sensitive) = mini_dataset();
        let sample: Vec<&HttpPacket> = packets[..60].iter().collect();
        let normal: Vec<&HttpPacket> = packets
            .iter()
            .enumerate()
            .filter(|(i, _)| !sensitive[*i])
            .map(|(_, p)| p)
            .collect();
        let set = regeneration_pass(&sample, &normal, &PipelineConfig::default()).set;
        assert!(!set.is_empty());
        crate::audit::deploy_check(&set).expect("clean regeneration is gate-clean");
    }

    /// No survivor is proved to dominate another, in either order — so
    /// nothing the set publishes is redundant and the A001/A002 gate
    /// has nothing to refuse.
    fn assert_no_survivor_dominates_another(set: &SignatureSet) {
        for a in set.iter() {
            for b in set.iter().filter(|b| !std::ptr::eq(*b, a)) {
                assert!(
                    crate::analyze::prove_dominates(a, b, MatchMode::Conjunction).is_none(),
                    "survivor {} dominates survivor {}",
                    a.id,
                    b.id
                );
            }
        }
        let dead = crate::analyze::dead_signatures(set, MatchMode::Conjunction);
        assert!(dead.is_empty(), "proved-dead survivors: {dead:?}");
    }

    /// The regeneration pass leaves no signature another survivor
    /// covers, whichever of the two comes first, on the hand-built
    /// dataset and on a netsim market sample.
    #[test]
    fn regeneration_output_has_no_proved_dead_signatures() {
        use leaksig_netsim::{Dataset, MarketConfig};
        let (packets, sensitive) = mini_dataset();
        let sample: Vec<&HttpPacket> = packets[..60].iter().collect();
        let normal: Vec<&HttpPacket> = packets
            .iter()
            .enumerate()
            .filter(|(i, _)| !sensitive[*i])
            .map(|(_, p)| p)
            .collect();
        let set = regeneration_pass(&sample, &normal, &PipelineConfig::default()).set;
        assert!(!set.is_empty());
        assert_no_survivor_dominates_another(&set);

        let data = Dataset::generate(MarketConfig::scaled(41, 0.05));
        let (suspicious, normal): (Vec<_>, Vec<_>) =
            data.packets.iter().partition(|p| p.is_sensitive());
        let sample: Vec<&HttpPacket> =
            suspicious.iter().map(|p| &p.packet).step_by(3).take(300).collect();
        let normal: Vec<&HttpPacket> = normal.iter().map(|p| &p.packet).take(2000).collect();
        let set = regeneration_pass(&sample, &normal, &PipelineConfig::default()).set;
        assert!(!set.is_empty());
        assert_no_survivor_dominates_another(&set);
    }

    /// The counted generation reports the same cluster diagnostic the
    /// experiment driver used to recompute from scratch.
    #[test]
    fn counted_clusters_match_recomputed_semantics() {
        let (packets, _) = mini_dataset();
        let sample: Vec<&HttpPacket> = packets[..40].iter().collect();
        let cfg = PipelineConfig::default();
        let generated = generate_signatures_counted(Lzss::default(), &sample, &cfg);
        let expected = match cfg.selection {
            ClusterSelection::AllNodes { .. } => 2 * sample.len() - 1,
            ClusterSelection::Cut(threshold) => {
                let dist = PacketDistance::new(Lzss::default(), cfg.distance);
                let features: Vec<_> = sample.iter().map(|p| dist.features(p)).collect();
                agglomerate(&pairwise(&dist, &features)).cut(threshold).len()
            }
        };
        assert_eq!(generated.clusters, expected);
        type SigShape = Vec<(u32, Vec<(u8, Vec<u8>)>)>;
        let shape = |set: &SignatureSet| -> SigShape {
            set.signatures
                .iter()
                .map(|s| {
                    (
                        s.id,
                        s.tokens
                            .iter()
                            .map(|t| (t.field as u8, t.bytes().to_vec()))
                            .collect(),
                    )
                })
                .collect()
        };
        assert_eq!(
            shape(&generated.set),
            shape(&generate_signatures(&sample, &cfg))
        );

        let empty = generate_signatures_counted(Lzss::default(), &[], &cfg);
        assert_eq!(empty.clusters, 0);
        assert!(empty.set.is_empty());
    }

    /// The per-node loop the signatures stage ran before the bottom-up
    /// token table: every selected node's members, grouped by method, each
    /// group through [`signature_from_cluster`] from scratch, duplicates
    /// skipped, then the deploy gate. Returns the set and the cluster count.
    fn per_node_generation(
        packets: &[&HttpPacket],
        config: &PipelineConfig,
    ) -> (SignatureSet, usize) {
        use crate::signature::signature_from_cluster;
        let dist = PacketDistance::new(Lzss::default(), config.distance);
        let features: Vec<_> = packets.iter().map(|p| dist.features(p)).collect();
        let dendrogram = agglomerate(&pairwise(&dist, &features));
        let clusters: Vec<Vec<usize>> = match config.selection {
            ClusterSelection::Cut(threshold) => dendrogram.cut(threshold),
            ClusterSelection::AllNodes { max_distance } => {
                let n = dendrogram.leaves();
                let mut nodes: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
                for (m, merge) in dendrogram.merges().iter().enumerate() {
                    if merge.distance <= max_distance {
                        nodes.push(dendrogram.members(n + m));
                    }
                }
                nodes
            }
        };
        let count = match config.selection {
            ClusterSelection::Cut(_) => clusters.len(),
            ClusterSelection::AllNodes { .. } => 2 * packets.len() - 1,
        };
        let mut signatures = Vec::new();
        let mut seen: std::collections::HashSet<Vec<(u8, Vec<u8>)>> = Default::default();
        for cluster in &clusters {
            let mut by_method: std::collections::BTreeMap<&str, Vec<&HttpPacket>> =
                Default::default();
            for &i in cluster {
                by_method
                    .entry(packets[i].request_line.method.as_str())
                    .or_default()
                    .push(packets[i]);
            }
            for members in by_method.values() {
                let id = signatures.len() as u32;
                if let Some(sig) = signature_from_cluster(id, members, &config.signature) {
                    let key = sig
                        .tokens
                        .iter()
                        .map(|t| (t.field as u8, t.bytes().to_vec()))
                        .collect();
                    if seen.insert(key) {
                        signatures.push(sig);
                    }
                }
            }
        }
        let mut set = SignatureSet { signatures };
        if config.deploy_gate {
            retain_structurally_clean(&mut set);
            drop_dominated(&mut set, MatchMode::Conjunction);
        }
        (set, count)
    }

    /// Everything a signature carries, in order: id, tokens (field,
    /// bytes, order hint), hosts, cluster size.
    type SigDump = (u32, Vec<(u8, Vec<u8>, u32)>, Vec<String>, usize);

    fn dump(set: &SignatureSet) -> Vec<SigDump> {
        set.signatures
            .iter()
            .map(|s| {
                let tokens = s
                    .tokens
                    .iter()
                    .map(|t| (t.field as u8, t.bytes().to_vec(), t.order_hint()))
                    .collect();
                (s.id, tokens, s.hosts.clone(), s.cluster_size)
            })
            .collect()
    }

    /// The bottom-up token table emits exactly what the per-node loop
    /// emits, under both selections and with the deploy gate on and off.
    fn assert_matches_per_node_loop(packets: &[&HttpPacket]) {
        for selection in [
            ClusterSelection::AllNodes { max_distance: 3.5 },
            ClusterSelection::Cut(1.6),
        ] {
            for deploy_gate in [true, false] {
                let cfg = PipelineConfig {
                    selection,
                    deploy_gate,
                    ..PipelineConfig::default()
                };
                let (expected, count) = per_node_generation(packets, &cfg);
                let got = generate_signatures_counted(Lzss::default(), packets, &cfg);
                assert!(
                    !expected.is_empty(),
                    "{selection:?}: oracle emitted nothing"
                );
                assert_eq!(got.clusters, count, "{selection:?} gate {deploy_gate}");
                assert_eq!(
                    dump(&got.set),
                    dump(&expected),
                    "{selection:?} gate {deploy_gate}"
                );
            }
        }
    }

    #[test]
    fn bottom_up_tokens_match_per_node_loop_on_mini_dataset() {
        let (packets, _) = mini_dataset();
        let refs: Vec<&HttpPacket> = packets.iter().collect();
        assert_matches_per_node_loop(&refs);
    }

    #[test]
    fn bottom_up_tokens_match_per_node_loop_on_market_sample() {
        use leaksig_netsim::{Dataset, MarketConfig};
        let data = Dataset::generate(MarketConfig::scaled(41, 0.05));
        let sample: Vec<&HttpPacket> = data
            .packets
            .iter()
            .filter(|p| p.is_sensitive())
            .map(|p| &p.packet)
            .step_by(3)
            .take(300)
            .collect();
        assert_eq!(sample.len(), 300);
        assert_matches_per_node_loop(&sample);
    }

    /// Chunked parallel feature extraction preserves order and content —
    /// the distance between any two extracted features is bit-identical
    /// to the serial path (110 packets, comfortably past the serial
    /// cutoff).
    #[test]
    fn parallel_feature_extraction_matches_serial() {
        let packets: Vec<HttpPacket> = (0..110)
            .map(|i| {
                RequestBuilder::get("/t")
                    .query("i", &i.to_string())
                    .query("imei", "355195000000017")
                    .destination(Ipv4Addr::new(203, 0, 113, (i % 200) as u8), 80, "p.example")
                    .build()
            })
            .collect();
        let refs: Vec<&HttpPacket> = packets.iter().collect();
        let dist: PacketDistance = PacketDistance::default();
        let par = extract_features(&dist, &refs);
        let ser: Vec<_> = refs.iter().map(|p| dist.features(p)).collect();
        assert_eq!(par.len(), ser.len());
        for (p, s) in par.iter().zip(&ser) {
            assert_eq!(p.ip, s.ip);
            assert_eq!(p.rline, s.rline);
        }
        for (i, j) in [(0, 1), (0, 109), (54, 55), (63, 64), (107, 3)] {
            assert_eq!(
                dist.packet(&par[i], &par[j]),
                dist.packet(&ser[i], &ser[j]),
                "({i},{j})"
            );
        }
    }

    /// `regeneration_pass` returns its stage timings with the set.
    #[test]
    fn regeneration_pass_records_stage_timings() {
        let (packets, labels) = mini_dataset();
        let sample: Vec<&HttpPacket> = packets
            .iter()
            .zip(&labels)
            .filter(|&(_, &l)| l)
            .map(|(p, _)| p)
            .collect();
        let normal: Vec<&HttpPacket> = packets
            .iter()
            .zip(&labels)
            .filter(|&(_, &l)| !l)
            .map(|(p, _)| p)
            .collect();
        let pass = regeneration_pass(&sample, &normal, &PipelineConfig::default());
        assert!(!pass.set.is_empty());
        let t = pass.timings;
        assert!(t.matrix_ms > 0.0 && t.prune_ms > 0.0, "{t:?}");
        assert!(t.total_ms() >= t.matrix_ms + t.prune_ms);
        let line = t.event_line();
        assert!(line.contains("matrix") && line.contains("prune"), "{line}");
    }

    #[test]
    fn determinism_under_seed() {
        let (packets, labels) = mini_dataset();
        let a = run_experiment(&packets, &labels, 25, &PipelineConfig::default());
        let b = run_experiment(&packets, &labels, 25, &PipelineConfig::default());
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.signatures.len(), b.signatures.len());
        let cfg = PipelineConfig {
            sample_seed: 999,
            ..Default::default()
        };
        let c = run_experiment(&packets, &labels, 25, &cfg);
        // Different sample, potentially different counts — but same totals.
        assert_eq!(c.counts.sensitive_total, a.counts.sensitive_total);
    }
}
