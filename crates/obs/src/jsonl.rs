//! JSONL trace writer: one JSON object per line, one line per event.
//!
//! The workspace has no serialization library, so the writer is
//! hand-rolled (and [`crate::json`] parses lines back). Field order is
//! fixed per event kind and `f64` values print via `Display` (shortest
//! round-trip form), so a trace is a deterministic byte-for-byte
//! function of the event stream — which is what the golden-digest tests
//! hash.

use std::io::{self, Write};

use simkit::time::SimTime;

use crate::event::{DegradedPhase, LinkSet, Locality, SimEvent};
use crate::json::Json;
use crate::sink::EventSink;

/// Serializes one event as a single-line JSON object (no trailing
/// newline). Exposed so tests and digests can render events without an
/// I/O sink.
pub fn event_to_json(at: SimTime, event: &SimEvent) -> String {
    let mut o = Obj::new(at, event.kind());
    match *event {
        SimEvent::JobSubmitted { job, maps, reduces } => {
            o.num("job", job);
            o.num("maps", maps);
            o.num("reduces", reduces);
        }
        SimEvent::JobStarted { job } | SimEvent::JobFinished { job } => o.num("job", job),
        SimEvent::TaskQueued {
            job,
            task,
            degraded,
        } => {
            o.num("job", job);
            o.num("task", task);
            o.bool("degraded", degraded);
        }
        SimEvent::MapLaunched {
            job,
            task,
            node,
            locality,
            speculative,
        }
        | SimEvent::MapDone {
            job,
            task,
            node,
            locality,
            speculative,
        } => {
            o.num("job", job);
            o.num("task", task);
            o.num("node", node);
            o.str("locality", locality.name());
            o.bool("speculative", speculative);
        }
        SimEvent::MapCancelled {
            job,
            task,
            node,
            speculative,
        } => {
            o.num("job", job);
            o.num("task", task);
            o.num("node", node);
            o.bool("speculative", speculative);
        }
        SimEvent::DegradedPlan {
            job,
            task,
            node,
            local,
            same_rack,
            cross_rack,
        } => {
            o.num("job", job);
            o.num("task", task);
            o.num("node", node);
            o.num("local", local);
            o.num("same_rack", same_rack);
            o.num("cross_rack", cross_rack);
        }
        SimEvent::RedundantFetchIssued {
            job,
            task,
            node,
            speculative,
            extra,
        } => {
            o.num("job", job);
            o.num("task", task);
            o.num("node", node);
            o.bool("speculative", speculative);
            o.num("extra", extra);
        }
        SimEvent::FetchCancelled {
            job,
            task,
            node,
            speculative,
            flow,
        } => {
            o.num("job", job);
            o.num("task", task);
            o.num("node", node);
            o.bool("speculative", speculative);
            o.num("flow", flow);
        }
        SimEvent::PhaseBegin {
            job,
            task,
            node,
            speculative,
            phase,
        }
        | SimEvent::PhaseEnd {
            job,
            task,
            node,
            speculative,
            phase,
        } => {
            o.num("job", job);
            o.num("task", task);
            o.num("node", node);
            o.bool("speculative", speculative);
            o.str("phase", phase.name());
        }
        SimEvent::ReduceLaunched { job, index, node }
        | SimEvent::ReduceShuffled { job, index, node }
        | SimEvent::ReduceDone { job, index, node } => {
            o.num("job", job);
            o.num("index", index);
            o.num("node", node);
        }
        SimEvent::FlowStarted {
            flow,
            src,
            dst,
            bytes,
            links,
        } => {
            o.num("flow", flow);
            o.num("src", src);
            o.num("dst", dst);
            o.num("bytes", bytes);
            o.links("links", links);
        }
        SimEvent::FlowRate { flow, rate_bps } => {
            o.num("flow", flow);
            o.f64("rate_bps", rate_bps);
        }
        SimEvent::FlowFinished { flow, cancelled } => {
            o.num("flow", flow);
            o.bool("cancelled", cancelled);
        }
        SimEvent::NodeFailed { node } | SimEvent::NodeRecovered { node } => o.num("node", node),
        SimEvent::RepairStarted {
            task,
            stripe,
            pos,
            replacement,
        } => {
            o.num("task", task);
            o.num("stripe", stripe);
            o.num("pos", pos);
            o.num("replacement", replacement);
        }
        SimEvent::RepairFinished { task } => o.num("task", task),
    }
    o.finish()
}

/// Parses one trace line back into its timestamp and event — the
/// inverse of [`event_to_json`], used by offline analysis (`obs-report`)
/// to rebuild an event stream from a JSONL file.
///
/// Integers round-trip through `f64` (the parser's only number type),
/// which is exact below 2^53 — far beyond any id or byte count the
/// simulator produces. Unknown kinds and missing fields are errors.
pub fn parse_line(line: &str) -> Result<(SimTime, SimEvent), String> {
    let v = Json::parse(line).map_err(|e| e.to_string())?;
    let int = |key: &str| -> Result<u64, String> {
        let x = v
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing numeric field \"{key}\""))?;
        if !(0.0..=u64::MAX as f64).contains(&x) || x.fract() != 0.0 {
            return Err(format!("field \"{key}\" is not an unsigned integer"));
        }
        Ok(x as u64)
    };
    let int32 = |key: &str| -> Result<u32, String> {
        u32::try_from(int(key)?).map_err(|_| format!("field \"{key}\" exceeds u32"))
    };
    let boolean = |key: &str| -> Result<bool, String> {
        match v.get(key) {
            Some(&Json::Bool(x)) => Ok(x),
            _ => Err(format!("missing boolean field \"{key}\"")),
        }
    };
    let string = |key: &str| -> Result<&str, String> {
        v.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing string field \"{key}\""))
    };
    let locality = || -> Result<Locality, String> {
        match string("locality")? {
            "node_local" => Ok(Locality::NodeLocal),
            "rack_local" => Ok(Locality::RackLocal),
            "remote" => Ok(Locality::Remote),
            "degraded" => Ok(Locality::Degraded),
            other => Err(format!("unknown locality \"{other}\"")),
        }
    };
    let phase = || -> Result<DegradedPhase, String> {
        match string("phase")? {
            "fetch_k" => Ok(DegradedPhase::FetchK),
            "decode" => Ok(DegradedPhase::Decode),
            "process" => Ok(DegradedPhase::Process),
            other => Err(format!("unknown phase \"{other}\"")),
        }
    };
    let links = || -> Result<LinkSet, String> {
        let items = v
            .get("links")
            .and_then(Json::as_array)
            .ok_or_else(|| "missing array field \"links\"".to_string())?;
        if items.len() > 4 {
            return Err("\"links\" holds more than 4 entries".to_string());
        }
        let mut set = LinkSet {
            len: items.len() as u8,
            links: [0; 4],
        };
        for (i, item) in items.iter().enumerate() {
            let x = item
                .as_f64()
                .filter(|x| (0.0..=f64::from(LinkSet::MAX_LINK)).contains(x) && x.fract() == 0.0)
                .ok_or_else(|| {
                    format!(
                        "\"links\" entry is not a link index (0..={})",
                        LinkSet::MAX_LINK
                    )
                })?;
            set.links[i] = x as u32;
        }
        Ok(set)
    };
    let at = SimTime::from_micros(int("t")?);
    let event = match string("ev")? {
        "job_submitted" => SimEvent::JobSubmitted {
            job: int32("job")?,
            maps: int32("maps")?,
            reduces: int32("reduces")?,
        },
        "job_started" => SimEvent::JobStarted { job: int32("job")? },
        "job_finished" => SimEvent::JobFinished { job: int32("job")? },
        "task_queued" => SimEvent::TaskQueued {
            job: int32("job")?,
            task: int32("task")?,
            degraded: boolean("degraded")?,
        },
        kind @ ("map_launched" | "map_done") => {
            let (job, task, node) = (int32("job")?, int32("task")?, int32("node")?);
            let (locality, speculative) = (locality()?, boolean("speculative")?);
            if kind == "map_launched" {
                SimEvent::MapLaunched {
                    job,
                    task,
                    node,
                    locality,
                    speculative,
                }
            } else {
                SimEvent::MapDone {
                    job,
                    task,
                    node,
                    locality,
                    speculative,
                }
            }
        }
        "map_cancelled" => SimEvent::MapCancelled {
            job: int32("job")?,
            task: int32("task")?,
            node: int32("node")?,
            speculative: boolean("speculative")?,
        },
        "degraded_plan" => SimEvent::DegradedPlan {
            job: int32("job")?,
            task: int32("task")?,
            node: int32("node")?,
            local: int32("local")?,
            same_rack: int32("same_rack")?,
            cross_rack: int32("cross_rack")?,
        },
        "redundant_fetch_issued" => SimEvent::RedundantFetchIssued {
            job: int32("job")?,
            task: int32("task")?,
            node: int32("node")?,
            speculative: boolean("speculative")?,
            extra: int32("extra")?,
        },
        "fetch_cancelled" => SimEvent::FetchCancelled {
            job: int32("job")?,
            task: int32("task")?,
            node: int32("node")?,
            speculative: boolean("speculative")?,
            flow: int("flow")?,
        },
        kind @ ("phase_begin" | "phase_end") => {
            let (job, task, node) = (int32("job")?, int32("task")?, int32("node")?);
            let (speculative, phase) = (boolean("speculative")?, phase()?);
            if kind == "phase_begin" {
                SimEvent::PhaseBegin {
                    job,
                    task,
                    node,
                    speculative,
                    phase,
                }
            } else {
                SimEvent::PhaseEnd {
                    job,
                    task,
                    node,
                    speculative,
                    phase,
                }
            }
        }
        kind @ ("reduce_launched" | "reduce_shuffled" | "reduce_done") => {
            let (job, index, node) = (int32("job")?, int32("index")?, int32("node")?);
            match kind {
                "reduce_launched" => SimEvent::ReduceLaunched { job, index, node },
                "reduce_shuffled" => SimEvent::ReduceShuffled { job, index, node },
                _ => SimEvent::ReduceDone { job, index, node },
            }
        }
        "flow_started" => SimEvent::FlowStarted {
            flow: int("flow")?,
            src: int32("src")?,
            dst: int32("dst")?,
            bytes: int("bytes")?,
            links: links()?,
        },
        "flow_rate" => SimEvent::FlowRate {
            flow: int("flow")?,
            rate_bps: v
                .get("rate_bps")
                .and_then(Json::as_f64)
                .ok_or_else(|| "missing numeric field \"rate_bps\"".to_string())?,
        },
        "flow_finished" => SimEvent::FlowFinished {
            flow: int("flow")?,
            cancelled: boolean("cancelled")?,
        },
        "node_failed" => SimEvent::NodeFailed {
            node: int32("node")?,
        },
        "node_recovered" => SimEvent::NodeRecovered {
            node: int32("node")?,
        },
        "repair_started" => SimEvent::RepairStarted {
            task: int32("task")?,
            stripe: int32("stripe")?,
            pos: int32("pos")?,
            replacement: int32("replacement")?,
        },
        "repair_finished" => SimEvent::RepairFinished {
            task: int32("task")?,
        },
        other => return Err(format!("unknown event kind \"{other}\"")),
    };
    Ok((at, event))
}

/// A tiny single-line JSON object builder; all keys in this crate are
/// static snake_case identifiers, so no escaping is needed.
struct Obj(String);

impl Obj {
    fn new(at: SimTime, kind: &str) -> Obj {
        Obj(format!("{{\"t\":{},\"ev\":\"{kind}\"", at.as_micros()))
    }

    fn num(&mut self, key: &str, value: impl Into<u64>) {
        use std::fmt::Write as _;
        let _ = write!(self.0, ",\"{key}\":{}", value.into());
    }

    fn f64(&mut self, key: &str, value: f64) {
        use std::fmt::Write as _;
        assert!(value.is_finite(), "non-finite {key} in trace");
        let _ = write!(self.0, ",\"{key}\":{value}");
    }

    fn bool(&mut self, key: &str, value: bool) {
        use std::fmt::Write as _;
        let _ = write!(self.0, ",\"{key}\":{value}");
    }

    fn str(&mut self, key: &str, value: &str) {
        use std::fmt::Write as _;
        let _ = write!(self.0, ",\"{key}\":\"{value}\"");
    }

    fn links(&mut self, key: &str, value: LinkSet) {
        use std::fmt::Write as _;
        let _ = write!(self.0, ",\"{key}\":[");
        for (i, link) in value.as_slice().iter().enumerate() {
            if i > 0 {
                self.0.push(',');
            }
            let _ = write!(self.0, "{link}");
        }
        self.0.push(']');
    }

    fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// An [`EventSink`] writing one JSON line per event to `W`.
///
/// I/O errors are deferred: `record` stores the first error and ignores
/// later events; [`JsonlSink::finish`] flushes and surfaces it.
///
/// Dropping a sink without calling `finish` (an early-return path)
/// still flushes best-effort, so buffered events are not silently lost;
/// a flush failure on that path is logged to stderr because `Drop`
/// cannot return it.
pub struct JsonlSink<W: Write> {
    /// `Some` until `finish` hands the writer back; `Drop` flushes any
    /// writer still present.
    out: Option<W>,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// A sink writing to `out`. Wrap files in a `BufWriter`.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink {
            out: Some(out),
            error: None,
        }
    }

    /// Flushes and returns the first I/O error encountered, if any.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        // The writer is always present before `finish` consumes self.
        let Some(mut out) = self.out.take() else {
            return Err(io::Error::other("jsonl sink already finished"));
        };
        out.flush()?;
        Ok(out)
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        let Some(out) = self.out.as_mut() else {
            return; // finish() already ran
        };
        if let Some(e) = self.error.take() {
            eprintln!("jsonl sink dropped with unreported write error: {e}");
        }
        if let Err(e) = out.flush() {
            eprintln!("jsonl sink flush on drop failed: {e}");
        }
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn record(&mut self, at: SimTime, event: &SimEvent) {
        if self.error.is_some() {
            return;
        }
        let Some(out) = self.out.as_mut() else {
            return;
        };
        let line = event_to_json(at, event);
        if let Err(e) = out
            .write_all(line.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
        {
            self.error = Some(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DegradedPhase, Locality};

    #[test]
    fn renders_fixed_field_order() {
        let json = event_to_json(
            SimTime::from_micros(1500),
            &SimEvent::MapLaunched {
                job: 0,
                task: 12,
                node: 3,
                locality: Locality::Degraded,
                speculative: false,
            },
        );
        assert_eq!(
            json,
            "{\"t\":1500,\"ev\":\"map_launched\",\"job\":0,\"task\":12,\
             \"node\":3,\"locality\":\"degraded\",\"speculative\":false}"
        );
    }

    #[test]
    fn renders_links_and_rates() {
        let json = event_to_json(
            SimTime::ZERO,
            &SimEvent::FlowStarted {
                flow: 7,
                src: 1,
                dst: 2,
                bytes: 1024,
                links: LinkSet::from_slice(&[2, 80, 83, 5]),
            },
        );
        assert!(json.ends_with("\"links\":[2,80,83,5]}"), "{json}");
        let rate = event_to_json(
            SimTime::ZERO,
            &SimEvent::FlowRate {
                flow: 7,
                rate_bps: 12500000.0,
            },
        );
        assert!(rate.contains("\"rate_bps\":12500000"), "{rate}");
    }

    /// A writer that exposes bytes to `shared` only on an explicit
    /// `flush` — unlike `BufWriter`, its own drop publishes nothing, so
    /// it can tell whether `JsonlSink` flushed.
    struct FlushOnly {
        buf: Vec<u8>,
        shared: std::rc::Rc<std::cell::RefCell<Vec<u8>>>,
    }

    impl Write for FlushOnly {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            self.buf.extend_from_slice(data);
            Ok(data.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.shared.borrow_mut().append(&mut self.buf);
            Ok(())
        }
    }

    #[test]
    fn dropping_an_unfinished_sink_flushes_buffered_events() {
        let shared = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        {
            let mut sink = JsonlSink::new(FlushOnly {
                buf: Vec::new(),
                shared: shared.clone(),
            });
            sink.record(SimTime::from_micros(5), &SimEvent::JobStarted { job: 1 });
            assert!(
                shared.borrow().is_empty(),
                "nothing published before drop/finish"
            );
            // Early-return path: the sink goes out of scope without
            // `finish()`.
        }
        let text = String::from_utf8(shared.borrow().clone()).unwrap();
        assert_eq!(text, "{\"t\":5,\"ev\":\"job_started\",\"job\":1}\n");
    }

    #[test]
    fn parse_line_inverts_event_to_json_for_every_kind() {
        let events = [
            SimEvent::JobSubmitted {
                job: 3,
                maps: 64,
                reduces: 8,
            },
            SimEvent::JobStarted { job: 3 },
            SimEvent::JobFinished { job: 3 },
            SimEvent::TaskQueued {
                job: 3,
                task: 17,
                degraded: true,
            },
            SimEvent::MapLaunched {
                job: 3,
                task: 17,
                node: 11,
                locality: Locality::RackLocal,
                speculative: true,
            },
            SimEvent::MapDone {
                job: 3,
                task: 17,
                node: 11,
                locality: Locality::Degraded,
                speculative: false,
            },
            SimEvent::MapCancelled {
                job: 3,
                task: 17,
                node: 2,
                speculative: true,
            },
            SimEvent::DegradedPlan {
                job: 3,
                task: 17,
                node: 11,
                local: 1,
                same_rack: 2,
                cross_rack: 3,
            },
            SimEvent::RedundantFetchIssued {
                job: 3,
                task: 17,
                node: 11,
                speculative: false,
                extra: 2,
            },
            SimEvent::FetchCancelled {
                job: 3,
                task: 17,
                node: 11,
                speculative: false,
                flow: 902,
            },
            SimEvent::PhaseBegin {
                job: 3,
                task: 17,
                node: 11,
                speculative: false,
                phase: DegradedPhase::FetchK,
            },
            SimEvent::PhaseEnd {
                job: 3,
                task: 17,
                node: 11,
                speculative: false,
                phase: DegradedPhase::Decode,
            },
            SimEvent::ReduceLaunched {
                job: 3,
                index: 1,
                node: 5,
            },
            SimEvent::ReduceShuffled {
                job: 3,
                index: 1,
                node: 5,
            },
            SimEvent::ReduceDone {
                job: 3,
                index: 1,
                node: 5,
            },
            SimEvent::FlowStarted {
                flow: 901,
                src: 4,
                dst: 19,
                bytes: 1 << 27,
                links: LinkSet::from_slice(&[4, 80, 81, 19]),
            },
            SimEvent::FlowRate {
                flow: 901,
                rate_bps: 15625000.5,
            },
            SimEvent::FlowFinished {
                flow: 901,
                cancelled: true,
            },
            SimEvent::NodeFailed { node: 7 },
            SimEvent::NodeRecovered { node: 7 },
            SimEvent::RepairStarted {
                task: 12,
                stripe: 4,
                pos: 9,
                replacement: 21,
            },
            SimEvent::RepairFinished { task: 12 },
        ];
        for (i, event) in events.iter().enumerate() {
            let at = SimTime::from_micros(1_000_000 + i as u64);
            let line = event_to_json(at, event);
            let (back_at, back) = parse_line(&line).unwrap();
            assert_eq!(back_at, at, "{line}");
            assert_eq!(&back, event, "{line}");
        }
    }

    #[test]
    fn parse_line_rejects_malformed_input() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line("{\"t\":0}").is_err(), "missing ev");
        assert!(parse_line("{\"t\":0,\"ev\":\"bogus_kind\"}").is_err());
        assert!(
            parse_line("{\"t\":0,\"ev\":\"node_failed\"}").is_err(),
            "missing node field"
        );
        assert!(
            parse_line("{\"t\":-1,\"ev\":\"node_failed\",\"node\":0}").is_err(),
            "negative timestamp"
        );
        assert!(
            parse_line("{\"t\":0.5,\"ev\":\"node_failed\",\"node\":0}").is_err(),
            "fractional timestamp"
        );
        let flow = |link: u32| {
            format!("{{\"t\":0,\"ev\":\"flow_started\",\"flow\":1,\"src\":0,\"dst\":1,\"bytes\":8,\"links\":[0,{link}]}}")
        };
        assert!(parse_line(&flow(LinkSet::MAX_LINK)).is_ok());
        assert!(
            parse_line(&flow(LinkSet::MAX_LINK + 1)).is_err(),
            "link index past the bound"
        );
    }

    #[test]
    fn sink_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(
            SimTime::ZERO,
            &SimEvent::PhaseBegin {
                job: 0,
                task: 1,
                node: 2,
                speculative: false,
                phase: DegradedPhase::FetchK,
            },
        );
        sink.record(SimTime::from_secs(1), &SimEvent::NodeFailed { node: 9 });
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
        assert!(text.contains("\"phase\":\"fetch_k\""));
    }
}
