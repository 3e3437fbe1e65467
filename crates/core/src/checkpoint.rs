//! Checkpoint/resume for the KMS loop.
//!
//! A checkpoint freezes the loop's cross-iteration state at an
//! iteration boundary: the mid-run network (exact arena serialization,
//! tombstones included), the iteration trace and counters accumulated so
//! far, the oracle-phase solver totals, the certification ledger, and the
//! verdict cache plus the signature-interner table that keys it. The
//! timing pass and the path frontier need no saving: the loop builds both
//! afresh from the network at the start of every iteration, so a resumed
//! run's final report matches the uninterrupted run's bit-for-bit on
//! everything but wall-clock.
//!
//! The file is versioned, digest-guarded (FNV-1a over the payload, so a
//! truncated or bit-rotted file is rejected rather than resumed), and
//! fingerprinted against the original input (circuit, arrivals, and the
//! semantically relevant options) so a checkpoint cannot be replayed
//! onto the wrong run. Writes go to a sibling temp file first and
//! rename over the target — a crash mid-write leaves the previous
//! checkpoint intact.

use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path as FsPath;
use std::time::Duration;

use kms_analysis::SignatureInterner;
use kms_netlist::{escape_token, unescape_token, Network};
use kms_proof::CertificationReport;
use kms_sat::Stats;
use kms_timing::{InputArrivals, Time};

use crate::algorithm::{removal_options, KmsIteration, KmsOptions};
use crate::engine::{CacheEntry, EngineStats};

/// Why a checkpoint could not be loaded.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The header names a format this build does not understand.
    Version(String),
    /// The payload digest does not match — truncated or corrupted file.
    DigestMismatch,
    /// A payload line could not be parsed.
    Malformed(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Version(h) => {
                write!(f, "unrecognized checkpoint header {h:?}")
            }
            CheckpointError::DigestMismatch => {
                write!(
                    f,
                    "checkpoint digest mismatch (truncated or corrupted file)"
                )
            }
            CheckpointError::Malformed(context) => {
                write!(f, "malformed checkpoint: {context}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

fn bad(context: impl Into<String>) -> CheckpointError {
    CheckpointError::Malformed(context.into())
}

/// The first line of every checkpoint file. v2 dropped the
/// `partials_reseeded` engine counter and made the cache and interner
/// sections mandatory. v3 added the ledger's `stream_ingested` counter,
/// and its cached certificate digests come from the rolling stream hash
/// of [`kms_proof::digest`]. v4 dropped the solver's two lemma-sharing
/// counters from the oracle line. v5 stores a refuted query's unsat core
/// instead of its full key, so a v4 cache would answer fewer queries than
/// the run that wrote it and a resume would not match that run's
/// counters. Older files are rejected as [`CheckpointError::Version`].
const HEADER: &str = "kms-checkpoint v5";

/// FNV-1a 64-bit, the workspace's standard content digest.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The run-identity fingerprint: circuit, arrivals, and the options that
/// change observable behavior. The removal engine enters as the options
/// the removal phase actually runs with, minus
/// [`kms_atpg::ParallelOptions::jobs`], which the engine ignores.
pub(crate) fn fingerprint(net: &Network, arrivals: &InputArrivals, options: &KmsOptions) -> u64 {
    let mut s = net.dump();
    for (pos, &input) in net.inputs().iter().enumerate() {
        let _ = writeln!(s, "arrival {pos} {}", arrivals.get(input));
    }
    let removal = removal_options(options);
    let _ = writeln!(
        s,
        "options {:?} {} {} {} {:?} {} {} {} {} {}",
        options.condition,
        removal.drop_patterns,
        removal.seed,
        removal.certify,
        removal.fault_budget,
        options.max_iterations,
        options.max_longest_paths,
        options.effort_cap,
        options.strash,
        options.certify,
    );
    fnv1a64(s.as_bytes())
}

/// A frozen KMS run, produced at an iteration boundary by
/// `kms --checkpoint` (via [`crate::RunControl`]) and consumed by
/// [`crate::kms_with_control`] as the resume state.
#[derive(Debug)]
pub struct Checkpoint {
    pub(crate) fingerprint: u64,
    pub(crate) next_iter: usize,
    pub(crate) gates_before: usize,
    pub(crate) topological_before: Time,
    pub(crate) max_fanout_before: usize,
    pub(crate) duplicated_gates: usize,
    pub(crate) dropped_total: u64,
    pub(crate) engine_stats: EngineStats,
    pub(crate) oracle_solver: Stats,
    pub(crate) certification: Option<CertificationReport>,
    pub(crate) iterations: Vec<KmsIteration>,
    /// Verdict-cache entries plus (hits, misses).
    pub(crate) cache: (Vec<CacheEntry>, u64, u64),
    pub(crate) interner: SignatureInterner,
    pub(crate) net: Network,
}

impl Checkpoint {
    /// The iteration the resumed loop will execute first (equivalently:
    /// how many iterations the checkpointed run had completed).
    pub fn next_iteration(&self) -> usize {
        self.next_iter
    }

    /// `true` if this checkpoint belongs to a run over exactly this
    /// circuit, arrival profile, and option set.
    pub fn matches(&self, net: &Network, arrivals: &InputArrivals, options: &KmsOptions) -> bool {
        self.fingerprint == fingerprint(net, arrivals, options)
    }

    /// Loads and verifies a checkpoint file.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on read failure, [`CheckpointError::Version`]
    /// on an unknown header, [`CheckpointError::DigestMismatch`] on
    /// corruption, [`CheckpointError::Malformed`] on a parse failure.
    pub fn load(path: impl AsRef<FsPath>) -> Result<Checkpoint, CheckpointError> {
        let text = fs::read_to_string(path)?;
        Checkpoint::parse(&text)
    }

    /// Writes the checkpoint atomically: serialize to `<path>.tmp`, then
    /// rename over `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (and, under `fault-inject`, the
    /// armed injected write failure).
    pub(crate) fn save(&self, path: &FsPath) -> io::Result<()> {
        #[cfg(feature = "fault-inject")]
        if crate::inject::should_fail_write() {
            return Err(io::Error::other("injected checkpoint write failure"));
        }
        let payload = self.render();
        let text = format!(
            "{HEADER}\ndigest {:016x}\n{payload}",
            fnv1a64(payload.as_bytes())
        );
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, text)?;
        fs::rename(&tmp, path)
    }

    pub(crate) fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "fingerprint {:016x}", self.fingerprint);
        let _ = writeln!(
            s,
            "progress {} {} {} {} {} {}",
            self.next_iter,
            self.gates_before,
            self.topological_before,
            self.max_fanout_before,
            self.duplicated_gates,
            self.dropped_total,
        );
        let e = &self.engine_stats;
        let _ = writeln!(
            s,
            "engine {} {} {} {} {} {}",
            e.incremental_updates,
            e.full_recomputes,
            e.partials_retained,
            e.partials_dropped,
            e.cache_hits,
            e.cache_misses,
        );
        let o = &self.oracle_solver;
        let _ = writeln!(
            s,
            "oracle {} {} {} {} {} {} {} {} {} {} {} {}",
            o.sat_calls,
            o.conflicts,
            o.decisions,
            o.propagations,
            o.restarts,
            o.learnts,
            o.learned_total,
            o.deleted_total,
            o.minimized_lits,
            o.lbd_sum,
            o.arena_gc,
            o.blocker_hits,
        );
        match &self.certification {
            None => {
                let _ = writeln!(s, "cert -");
            }
            Some(c) => {
                let _ = writeln!(
                    s,
                    "cert {} {} {} {} {} {} {} {} {} {} {}",
                    c.proofs_emitted,
                    c.proofs_checked,
                    c.proofs_failed,
                    c.check_time.as_nanos(),
                    c.proof_stream_total,
                    c.proof_stream_max,
                    c.stream_ingested,
                    c.steps_checked,
                    c.steps_skipped,
                    c.propagations,
                    c.failures.len(),
                );
                for fail in &c.failures {
                    let _ = writeln!(s, "cf {}", escape_token(fail));
                }
            }
        }
        let _ = writeln!(s, "iters {}", self.iterations.len());
        for it in &self.iterations {
            let _ = writeln!(
                s,
                "it {} {} {} {} {} {}",
                it.longest_length,
                it.duplicated,
                u8::from(it.constant),
                it.gates_after,
                it.dropped,
                escape_token(&it.path),
            );
        }
        let (entries, hits, misses) = &self.cache;
        let _ = writeln!(s, "cache {} {hits} {misses}", entries.len());
        for (key, (verdict, digest)) in entries {
            let _ = write!(s, "k {}", key.len());
            for (sig, val) in key {
                let _ = write!(s, " {sig}:{}", u8::from(*val));
            }
            let _ = write!(s, " v {}", u8::from(*verdict));
            match digest {
                Some(d) => {
                    let _ = writeln!(s, " {d:016x}");
                }
                None => {
                    let _ = writeln!(s, " -");
                }
            }
        }
        let lines = self.interner.export_lines();
        let _ = writeln!(s, "interner {}", lines.len());
        for line in lines {
            let _ = writeln!(s, "s {line}");
        }
        let net = self.net.serialize_exact();
        let _ = writeln!(s, "net {}", net.lines().count());
        s.push_str(&net);
        s.push_str("end\n");
        s
    }

    pub(crate) fn parse(text: &str) -> Result<Checkpoint, CheckpointError> {
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| bad("empty file"))?;
        if header != HEADER {
            return Err(CheckpointError::Version(header.to_string()));
        }
        let digest_line = lines.next().ok_or_else(|| bad("missing digest line"))?;
        let digest = digest_line
            .strip_prefix("digest ")
            .ok_or_else(|| bad("missing digest line"))?;
        let digest = u64::from_str_radix(digest, 16).map_err(|_| bad("bad digest"))?;
        let payload = text
            .split_once('\n')
            .and_then(|(_, rest)| rest.split_once('\n'))
            .map(|(_, payload)| payload)
            .ok_or_else(|| bad("missing payload"))?;
        if fnv1a64(payload.as_bytes()) != digest {
            return Err(CheckpointError::DigestMismatch);
        }

        fn field<T: std::str::FromStr>(
            f: &mut std::str::Split<'_, char>,
            what: &str,
        ) -> Result<T, CheckpointError> {
            f.next()
                .ok_or_else(|| bad(format!("missing {what}")))?
                .parse()
                .map_err(|_| bad(format!("bad {what}")))
        }
        fn tagged<'a>(
            lines: &mut std::str::Lines<'a>,
            tag: &str,
        ) -> Result<std::str::Split<'a, char>, CheckpointError> {
            let line = lines
                .next()
                .ok_or_else(|| bad(format!("missing {tag} line")))?;
            let mut f = line.split(' ');
            if f.next() != Some(tag) {
                return Err(bad(format!("expected {tag} line, got {line:?}")));
            }
            Ok(f)
        }
        fn parse_bool01(
            f: &mut std::str::Split<'_, char>,
            what: &str,
        ) -> Result<bool, CheckpointError> {
            match f.next() {
                Some("0") => Ok(false),
                Some("1") => Ok(true),
                _ => Err(bad(format!("bad {what}"))),
            }
        }

        let mut f = tagged(&mut lines, "fingerprint")?;
        let fingerprint =
            u64::from_str_radix(f.next().ok_or_else(|| bad("missing fingerprint"))?, 16)
                .map_err(|_| bad("bad fingerprint"))?;

        let mut f = tagged(&mut lines, "progress")?;
        let next_iter = field(&mut f, "next_iter")?;
        let gates_before = field(&mut f, "gates_before")?;
        let topological_before = field(&mut f, "topological_before")?;
        let max_fanout_before = field(&mut f, "max_fanout_before")?;
        let duplicated_gates = field(&mut f, "duplicated_gates")?;
        let dropped_total = field(&mut f, "dropped_total")?;

        let mut f = tagged(&mut lines, "engine")?;
        let engine_stats = EngineStats {
            incremental_updates: field(&mut f, "engine counter")?,
            full_recomputes: field(&mut f, "engine counter")?,
            partials_retained: field(&mut f, "engine counter")?,
            partials_dropped: field(&mut f, "engine counter")?,
            cache_hits: field(&mut f, "engine counter")?,
            cache_misses: field(&mut f, "engine counter")?,
        };

        let mut f = tagged(&mut lines, "oracle")?;
        let oracle_solver = Stats {
            sat_calls: field(&mut f, "oracle counter")?,
            conflicts: field(&mut f, "oracle counter")?,
            decisions: field(&mut f, "oracle counter")?,
            propagations: field(&mut f, "oracle counter")?,
            restarts: field(&mut f, "oracle counter")?,
            learnts: field(&mut f, "oracle counter")?,
            learned_total: field(&mut f, "oracle counter")?,
            deleted_total: field(&mut f, "oracle counter")?,
            minimized_lits: field(&mut f, "oracle counter")?,
            lbd_sum: field(&mut f, "oracle counter")?,
            arena_gc: field(&mut f, "oracle counter")?,
            blocker_hits: field(&mut f, "oracle counter")?,
        };

        let mut f = tagged(&mut lines, "cert")?;
        let certification = match f.next() {
            Some("-") => None,
            Some(first) => {
                let mut c = CertificationReport {
                    proofs_emitted: first.parse().map_err(|_| bad("bad cert counter"))?,
                    proofs_checked: field(&mut f, "cert counter")?,
                    proofs_failed: field(&mut f, "cert counter")?,
                    check_time: Duration::from_nanos(field(&mut f, "cert check_time")?),
                    proof_stream_total: field(&mut f, "cert counter")?,
                    proof_stream_max: field(&mut f, "cert counter")?,
                    stream_ingested: field(&mut f, "cert counter")?,
                    steps_checked: field(&mut f, "cert counter")?,
                    steps_skipped: field(&mut f, "cert counter")?,
                    propagations: field(&mut f, "cert counter")?,
                    failures: Vec::new(),
                };
                let nfail: usize = field(&mut f, "cert failure count")?;
                for _ in 0..nfail {
                    let mut f = tagged(&mut lines, "cf")?;
                    let tok = f.next().ok_or_else(|| bad("missing cert failure"))?;
                    c.failures
                        .push(unescape_token(tok).ok_or_else(|| bad("bad cert failure escape"))?);
                }
                Some(c)
            }
            None => return Err(bad("empty cert line")),
        };

        let mut f = tagged(&mut lines, "iters")?;
        let n_iters: usize = field(&mut f, "iteration count")?;
        let mut iterations = Vec::with_capacity(n_iters);
        for _ in 0..n_iters {
            let mut f = tagged(&mut lines, "it")?;
            let longest_length = field(&mut f, "longest_length")?;
            let duplicated = field(&mut f, "duplicated")?;
            let constant = parse_bool01(&mut f, "constant")?;
            let gates_after = field(&mut f, "gates_after")?;
            let dropped = field(&mut f, "dropped")?;
            let path_tok = f.next().ok_or_else(|| bad("missing iteration path"))?;
            iterations.push(KmsIteration {
                longest_length,
                path: unescape_token(path_tok).ok_or_else(|| bad("bad path escape"))?,
                duplicated,
                constant,
                gates_after,
                dropped,
            });
        }

        let mut f = tagged(&mut lines, "cache")?;
        let n: usize = field(&mut f, "cache entry count")?;
        let hits = field(&mut f, "cache hits")?;
        let misses = field(&mut f, "cache misses")?;
        // No capacity from the file's counts: they are unchecked input.
        let mut entries = Vec::new();
        for _ in 0..n {
            let mut f = tagged(&mut lines, "k")?;
            let npairs: usize = field(&mut f, "cache key length")?;
            let mut key = Vec::new();
            for _ in 0..npairs {
                let tok = f.next().ok_or_else(|| bad("truncated cache key"))?;
                let (sig, val) = tok
                    .split_once(':')
                    .ok_or_else(|| bad(format!("bad cache pair {tok:?}")))?;
                let sig = sig.parse().map_err(|_| bad("bad cache signature"))?;
                let val = match val {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("bad cache value")),
                };
                key.push((sig, val));
            }
            if f.next() != Some("v") {
                return Err(bad("missing cache verdict marker"));
            }
            let verdict = parse_bool01(&mut f, "cache verdict")?;
            let digest = match f.next() {
                Some("-") => None,
                Some(d) => Some(u64::from_str_radix(d, 16).map_err(|_| bad("bad cache digest"))?),
                None => return Err(bad("missing cache digest")),
            };
            entries.push((key, (verdict, digest)));
        }
        let cache = (entries, hits, misses);

        let mut f = tagged(&mut lines, "interner")?;
        let n: usize = field(&mut f, "interner count")?;
        let mut shape_lines = Vec::new();
        for _ in 0..n {
            let line = lines.next().ok_or_else(|| bad("truncated interner"))?;
            shape_lines.push(
                line.strip_prefix("s ")
                    .ok_or_else(|| bad(format!("expected shape line, got {line:?}")))?,
            );
        }
        let interner = SignatureInterner::import_lines(shape_lines)
            .ok_or_else(|| bad("invalid interner table"))?;

        let mut f = tagged(&mut lines, "net")?;
        let n_net_lines: usize = field(&mut f, "net line count")?;
        let mut net_text = String::new();
        for _ in 0..n_net_lines {
            net_text.push_str(lines.next().ok_or_else(|| bad("truncated network"))?);
            net_text.push('\n');
        }
        let net = Network::deserialize_exact(&net_text)
            .map_err(|e| bad(format!("embedded network: {e}")))?;

        if lines.next() != Some("end") {
            return Err(bad("missing end marker"));
        }
        Ok(Checkpoint {
            fingerprint,
            next_iter,
            gates_before,
            topological_before,
            max_fanout_before,
            duplicated_gates,
            dropped_total,
            engine_stats,
            oracle_solver,
            certification,
            iterations,
            cache,
            interner,
            net,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kms_netlist::{Delay, GateKind};

    fn sample() -> Checkpoint {
        let mut net = Network::new("ck");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        net.add_output("y", g);
        let mut interner = SignatureInterner::new();
        interner.sign_network(&net);
        Checkpoint {
            fingerprint: 0xdead_beef_0102_0304,
            next_iter: 3,
            gates_before: 41,
            topological_before: 17,
            max_fanout_before: 5,
            duplicated_gates: 2,
            dropped_total: 1,
            engine_stats: EngineStats {
                incremental_updates: 2,
                full_recomputes: 1,
                partials_retained: 10,
                partials_dropped: 3,
                cache_hits: 0,
                cache_misses: 0,
            },
            oracle_solver: Stats {
                sat_calls: 9,
                conflicts: 4,
                propagations: 100,
                ..Stats::default()
            },
            certification: Some(CertificationReport {
                proofs_emitted: 2,
                proofs_checked: 2,
                check_time: Duration::from_nanos(1234),
                proof_stream_total: 90,
                stream_ingested: 40,
                failures: vec!["an example failure".to_string()],
                ..CertificationReport::default()
            }),
            iterations: vec![KmsIteration {
                longest_length: 17,
                path: "a -> g2 -> y (len 17)".to_string(),
                duplicated: 2,
                constant: true,
                gates_after: 40,
                dropped: 1,
            }],
            cache: (
                vec![
                    (vec![(0, true), (3, false)], (false, Some(0xabcd))),
                    (vec![(1, true)], (true, None)),
                ],
                7,
                5,
            ),
            interner,
            net,
        }
    }

    #[test]
    fn render_parse_round_trips() {
        let ck = sample();
        let payload = ck.render();
        let text = format!(
            "{HEADER}\ndigest {:016x}\n{payload}",
            super::fnv1a64(payload.as_bytes())
        );
        let back = Checkpoint::parse(&text).unwrap();
        assert_eq!(back.render(), payload);
        assert_eq!(back.fingerprint, ck.fingerprint);
        assert_eq!(back.next_iter, 3);
        assert_eq!(back.engine_stats, ck.engine_stats);
        assert_eq!(back.oracle_solver, ck.oracle_solver);
        assert_eq!(back.iterations.len(), 1);
        assert_eq!(back.iterations[0].path, ck.iterations[0].path);
        let cert = back.certification.as_ref().unwrap();
        assert_eq!(cert.failures, vec!["an example failure".to_string()]);
        assert_eq!(cert.check_time, Duration::from_nanos(1234));
        assert_eq!(back.cache.0.len(), 2);
    }

    #[test]
    fn save_load_round_trips_atomically() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/ckpt-tests");
        fs::create_dir_all(dir).unwrap();
        let path = FsPath::new(dir).join(format!("unit-{}.ck", std::process::id()));
        let ck = sample();
        ck.save(&path).unwrap();
        assert!(!path.with_extension("tmp").exists(), "tmp renamed away");
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back.render(), ck.render());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_is_rejected() {
        let ck = sample();
        let payload = ck.render();
        let good = format!(
            "{HEADER}\ndigest {:016x}\n{payload}",
            super::fnv1a64(payload.as_bytes())
        );
        // Flip one payload byte: digest must catch it.
        let corrupt = good.replacen("progress 3", "progress 4", 1);
        assert!(matches!(
            Checkpoint::parse(&corrupt),
            Err(CheckpointError::DigestMismatch)
        ));
        // Truncation: digest catches it too.
        let truncated = &good[..good.len() - 20];
        assert!(matches!(
            Checkpoint::parse(truncated),
            Err(CheckpointError::DigestMismatch)
        ));
        // Unknown version.
        assert!(matches!(
            Checkpoint::parse("kms-checkpoint v9\ndigest 0\n"),
            Err(CheckpointError::Version(_))
        ));
    }

    /// Files in the v1 format (written before the cone-scoped timing
    /// engine was retired), the v2 format (before the ledger's
    /// `stream_ingested` counter), the v3 format (with the lemma-sharing
    /// solver counters) and the v4 format (full keys for refuted queries,
    /// no cores) are refused with a typed error, even when their digest is
    /// intact.
    #[test]
    fn v1_checkpoint_is_a_version_error() {
        let payload = "fingerprint 00000000deadbeef\n\
                       progress 1 3 2 1 0 0\n\
                       engine 1 1 4 2 1 0 3\n\
                       oracle 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n\
                       cert -\n\
                       iters 0\n\
                       cache -\n\
                       interner -\n\
                       net 0\n\
                       end\n";
        for header in [
            "kms-checkpoint v1",
            "kms-checkpoint v2",
            "kms-checkpoint v3",
            "kms-checkpoint v4",
        ] {
            let text = format!(
                "{header}\ndigest {:016x}\n{payload}",
                super::fnv1a64(payload.as_bytes())
            );
            match Checkpoint::parse(&text) {
                Err(CheckpointError::Version(h)) => assert_eq!(h, header),
                other => panic!("{header}: expected a version error, got {other:?}"),
            }
        }
    }
}
