//! The merged, exportable event stream: deterministic ordering, JSONL
//! rendering, and a streaming digest.

use std::fmt::{self, Write as _};
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;

use simkit::SimTime;

use crate::event::TelemetryEvent;
use crate::record::Record;
use crate::STREAM_VERSION;

/// One record of a merged stream: a [`Record`] tagged with the shard it
/// came from (shard 0 for single-system runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamRecord {
    /// Originating shard (0 for unsharded runs).
    pub shard: u32,
    /// Simulated time of the event.
    pub time: SimTime,
    /// Sequence number within the shard's stream.
    pub seq: u64,
    /// The event.
    pub event: TelemetryEvent,
}

/// A finished run's telemetry, ordered by `(time, shard, seq)`.
///
/// The ordering is the thread-count-invariance contract: per-shard
/// streams depend only on that shard's sequential execution, and the
/// merge key is independent of which worker thread ran which shard —
/// so the exported JSONL (and its digest) is identical at any thread
/// count, run to run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryStream {
    records: Vec<StreamRecord>,
}

impl TelemetryStream {
    /// Merges the per-source buffers of **one** system (market, fleet
    /// controller, serving core, …) into a single shard-0 stream.
    ///
    /// Sources are combined by `(time, source-rank, seq)` — each
    /// source's buffer is already time-ordered because components emit
    /// at their non-decreasing `now` — then re-sequenced 0.. so the
    /// shard stream carries one total order.
    pub fn from_sources(sources: Vec<Vec<Record>>) -> Self {
        let total: usize = sources.iter().map(Vec::len).sum();
        let mut keyed: Vec<(SimTime, u32, u64, TelemetryEvent)> = Vec::with_capacity(total);
        for (rank, source) in sources.into_iter().enumerate() {
            for r in source {
                keyed.push((r.time, rank as u32, r.seq, r.event));
            }
        }
        keyed.sort_by_key(|&(t, rank, seq, _)| (t, rank, seq));
        let records = keyed
            .into_iter()
            .enumerate()
            .map(|(i, (time, _, _, event))| StreamRecord {
                shard: 0,
                time,
                seq: i as u64,
                event,
            })
            .collect();
        TelemetryStream { records }
    }

    /// Merges per-shard streams into one, re-tagging stream `i` as
    /// shard `i` and ordering by `(time, shard, seq)`.
    pub fn merge_shards(shards: Vec<TelemetryStream>) -> Self {
        let total: usize = shards.iter().map(TelemetryStream::len).sum();
        let mut records = Vec::with_capacity(total);
        for (shard, stream) in shards.into_iter().enumerate() {
            records.extend(stream.records.into_iter().map(|mut r| {
                r.shard = shard as u32;
                r
            }));
        }
        records.sort_by_key(|r| (r.time, r.shard, r.seq));
        TelemetryStream { records }
    }

    /// The records, in `(time, shard, seq)` order.
    pub fn records(&self) -> &[StreamRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the stream holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The minimum live-instance count observed at or after `t0`,
    /// derived from grant/kill/release events (the figure binaries'
    /// "did the floor hold" metric). Returns the count as of `t0` if no
    /// later fleet event occurs.
    pub fn live_floor_after(&self, t0: SimTime) -> i64 {
        let mut live: i64 = 0;
        let mut floor: Option<i64> = None;
        for r in &self.records {
            if r.time >= t0 && floor.is_none() {
                floor = Some(live);
            }
            let delta = match r.event {
                TelemetryEvent::InstanceGrant { .. } => 1,
                TelemetryEvent::InstanceKill { .. }
                | TelemetryEvent::InstanceRelease { .. }
                | TelemetryEvent::Fault { .. } => -1,
                _ => 0,
            };
            if delta != 0 {
                live += delta;
                if r.time >= t0 {
                    let f = floor.get_or_insert(live);
                    *f = (*f).min(live);
                }
            }
        }
        floor.unwrap_or(live).min(live)
    }

    /// Renders the stream as JSONL into any [`fmt::Write`] sink: one
    /// header line carrying [`STREAM_VERSION`], then one compact
    /// integer-exact JSON object per record.
    pub fn jsonl_into(&self, out: &mut impl fmt::Write) {
        jsonl_header_into(out);
        let mut line = String::with_capacity(160);
        for r in &self.records {
            line.clear();
            jsonl_record_into(
                &mut line,
                r.shard,
                &Record {
                    time: r.time,
                    seq: r.seq,
                    event: r.event,
                },
            );
            out.write_str(&line).expect("infallible fmt sink");
        }
    }

    /// The stream as one JSONL string.
    pub fn to_jsonl(&self) -> String {
        // ~96 bytes/line is a good prior for the compact encoding.
        let mut s = String::with_capacity(64 + self.records.len() * 96);
        self.jsonl_into(&mut s);
        s
    }

    /// FNV-1a digest of the JSONL rendering — the cross-thread-count,
    /// cross-run equality check CI pins.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.jsonl_into(&mut h);
        h.finish()
    }

    /// Writes the JSONL rendering to `path` (buffered, overwrites).
    pub fn write_jsonl_file(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(self.to_jsonl().as_bytes())?;
        out.flush()
    }
}

/// Streaming FNV-1a over anything rendered through [`fmt::Write`] —
/// digest a canonical rendering without materializing it.
#[derive(Debug, Clone)]
pub struct Fnv1a {
    hash: u64,
}

impl Fnv1a {
    /// FNV-1a offset basis.
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// FNV-1a prime.
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh digest at the offset basis.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Fnv1a { hash: Self::OFFSET }
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(Self::PRIME);
        }
        Ok(())
    }
}

/// Writes the JSONL stream header (line 1 of every export).
fn jsonl_header_into(out: &mut impl fmt::Write) {
    writeln!(
        out,
        "{{\"stream\":\"spotserve.telemetry\",\"version\":{STREAM_VERSION}}}"
    )
    .expect("infallible fmt sink");
}

/// Writes one record as a single JSONL line (with trailing newline).
///
/// Key order is fixed; every value is an integer, a bool, or a static
/// SKU name — nothing here formats a float, so the byte stream is
/// exactly reproducible.
fn jsonl_record_into(out: &mut String, shard: u32, r: &Record) {
    write!(
        out,
        "{{\"t_us\":{},\"shard\":{},\"seq\":{},\"ev\":\"{}\"",
        r.time.as_micros(),
        shard,
        r.seq,
        r.event.kind()
    )
    .expect("write to String");
    match r.event {
        TelemetryEvent::InstanceGrant {
            pool,
            instance,
            ondemand,
        } => {
            write!(out, ",\"pool\":{pool},\"inst\":{instance},\"od\":{ondemand}")
        }
        TelemetryEvent::KillNotice {
            pool,
            instance,
            kill_at_us,
        } => {
            write!(
                out,
                ",\"pool\":{pool},\"inst\":{instance},\"kill_at_us\":{kill_at_us}"
            )
        }
        TelemetryEvent::InstanceKill { pool, instance }
        | TelemetryEvent::InstanceRelease { pool, instance }
        | TelemetryEvent::Fault { pool, instance } => {
            write!(out, ",\"pool\":{pool},\"inst\":{instance}")
        }
        TelemetryEvent::PriceStep {
            pool,
            cents_per_hour,
        } => {
            write!(out, ",\"pool\":{pool},\"cents_per_hour\":{cents_per_hour}")
        }
        TelemetryEvent::FleetCommand {
            spot,
            cancel_spot,
            ondemand,
            release,
        } => {
            write!(
                out,
                ",\"spot\":{spot},\"cancel\":{cancel_spot},\"ondemand\":{ondemand},\"release\":{release}"
            )
        }
        TelemetryEvent::TransitionBegin { epoch, deadline_us } => {
            write!(out, ",\"epoch\":{epoch},\"deadline_us\":{deadline_us}")
        }
        TelemetryEvent::TransitionCommit {
            epoch,
            verdict,
            fraction_ppm,
            migrated_bytes,
            reloaded_bytes,
            pause_us,
        } => {
            write!(
                out,
                ",\"epoch\":{epoch},\"verdict\":\"{}\",\"fraction_ppm\":{fraction_ppm},\"migrated_bytes\":{migrated_bytes},\"reloaded_bytes\":{reloaded_bytes},\"pause_us\":{pause_us}",
                verdict.as_str()
            )
        }
        TelemetryEvent::TransitionHalt { epoch } => write!(out, ",\"epoch\":{epoch}"),
        TelemetryEvent::Decision {
            sku,
            data,
            pipe,
            tensor,
            batch,
            memo_hit,
        } => {
            write!(
                out,
                ",\"sku\":\"{sku}\",\"data\":{data},\"pipe\":{pipe},\"tensor\":{tensor},\"batch\":{batch},\"memo_hit\":{memo_hit}"
            )
        }
        TelemetryEvent::DecisionHalt { memo_hit } => write!(out, ",\"memo_hit\":{memo_hit}"),
        TelemetryEvent::SloRejection { request } => write!(out, ",\"request\":{request}"),
        TelemetryEvent::EngineRollup {
            queue_depth,
            residents,
            admitted,
            deferrals,
            rejected,
            completed,
            tokens,
        } => {
            write!(
                out,
                ",\"queue\":{queue_depth},\"residents\":{residents},\"admitted\":{admitted},\"deferrals\":{deferrals},\"rejected\":{rejected},\"completed\":{completed},\"tokens\":{tokens}"
            )
        }
        TelemetryEvent::CostRollup {
            pool,
            sku,
            spot_microusd,
            ondemand_microusd,
        } => {
            write!(
                out,
                ",\"pool\":{pool},\"sku\":\"{sku}\",\"spot_microusd\":{spot_microusd},\"ondemand_microusd\":{ondemand_microusd}"
            )
        }
        TelemetryEvent::RequestLapsed { pool, ondemand } => {
            write!(out, ",\"pool\":{pool},\"od\":{ondemand}")
        }
        TelemetryEvent::RetryScheduled { pool, attempt, at_us } => {
            write!(out, ",\"pool\":{pool},\"attempt\":{attempt},\"at_us\":{at_us}")
        }
        TelemetryEvent::RetryEscalated { pool, attempts } => {
            write!(out, ",\"pool\":{pool},\"attempts\":{attempts}")
        }
        TelemetryEvent::TriageDowngrade { epoch, from, to } => {
            write!(
                out,
                ",\"epoch\":{epoch},\"from\":\"{}\",\"to\":\"{}\"",
                from.as_str(),
                to.as_str()
            )
        }
    }
    .expect("write to String");
    out.push_str("}\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u64, seq: u64, event: TelemetryEvent) -> Record {
        Record {
            time: SimTime::from_micros(t),
            seq,
            event,
        }
    }

    #[test]
    fn from_sources_orders_by_time_then_source_then_seq() {
        let market = vec![
            rec(
                5,
                0,
                TelemetryEvent::InstanceKill {
                    pool: 0,
                    instance: 1,
                },
            ),
            rec(
                10,
                1,
                TelemetryEvent::InstanceGrant {
                    pool: 0,
                    instance: 2,
                    ondemand: false,
                },
            ),
        ];
        let core = vec![rec(
            5,
            0,
            TelemetryEvent::TransitionBegin {
                epoch: 0,
                deadline_us: u64::MAX,
            },
        )];
        let s = TelemetryStream::from_sources(vec![market, core]);
        let kinds: Vec<&str> = s.records().iter().map(|r| r.event.kind()).collect();
        assert_eq!(kinds, ["kill", "tbegin", "grant"]);
        let seqs: Vec<u64> = s.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [0, 1, 2], "merged stream is re-sequenced");
    }

    #[test]
    fn merge_shards_is_order_invariant_in_output() {
        let a = TelemetryStream::from_sources(vec![vec![rec(
            3,
            0,
            TelemetryEvent::TransitionHalt { epoch: 1 },
        )]]);
        let b = TelemetryStream::from_sources(vec![vec![rec(
            1,
            0,
            TelemetryEvent::TransitionHalt { epoch: 2 },
        )]]);
        let merged = TelemetryStream::merge_shards(vec![a, b]);
        let shards: Vec<u32> = merged.records().iter().map(|r| r.shard).collect();
        assert_eq!(shards, [1, 0], "time order wins over shard index");
    }

    #[test]
    fn jsonl_golden_line() {
        let s = TelemetryStream::from_sources(vec![vec![rec(
            1_500_000,
            0,
            TelemetryEvent::PriceStep {
                pool: 3,
                cents_per_hour: 120,
            },
        )]]);
        assert_eq!(
            s.to_jsonl(),
            format!(
                "{{\"stream\":\"spotserve.telemetry\",\"version\":{STREAM_VERSION}}}\n\
                 {{\"t_us\":1500000,\"shard\":0,\"seq\":0,\"ev\":\"price\",\"pool\":3,\"cents_per_hour\":120}}\n"
            )
        );
    }

    #[test]
    fn digest_matches_fnv_over_jsonl() {
        let s = TelemetryStream::from_sources(vec![vec![rec(
            7,
            0,
            TelemetryEvent::SloRejection { request: 42 },
        )]]);
        let mut h = Fnv1a::new();
        use std::fmt::Write;
        h.write_str(&s.to_jsonl()).unwrap();
        assert_eq!(s.digest(), h.finish());
        assert_ne!(s.digest(), TelemetryStream::default().digest());
    }

    #[test]
    fn live_floor_tracks_grants_and_kills() {
        let evs = vec![
            rec(
                0,
                0,
                TelemetryEvent::InstanceGrant {
                    pool: 0,
                    instance: 0,
                    ondemand: false,
                },
            ),
            rec(
                1,
                1,
                TelemetryEvent::InstanceGrant {
                    pool: 0,
                    instance: 1,
                    ondemand: false,
                },
            ),
            rec(
                5,
                2,
                TelemetryEvent::InstanceKill {
                    pool: 0,
                    instance: 0,
                },
            ),
            rec(
                9,
                3,
                TelemetryEvent::InstanceGrant {
                    pool: 0,
                    instance: 2,
                    ondemand: true,
                },
            ),
        ];
        let s = TelemetryStream::from_sources(vec![evs]);
        assert_eq!(s.live_floor_after(SimTime::ZERO), 0);
        assert_eq!(s.live_floor_after(SimTime::from_micros(2)), 1);
        assert_eq!(s.live_floor_after(SimTime::from_micros(6)), 1);
        assert_eq!(s.live_floor_after(SimTime::from_micros(100)), 2);
    }
}
