//! Trace export: serializing the profile stream to Chrome trace-event
//! JSON, loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//!
//! [`TraceRecorder`] is a [`RunObserver`]: attach it through
//! [`JobRunner::observer`](crate::JobRunner::observer) with
//! [`JobRunner::profile`](crate::JobRunner::profile) on and every
//! [`StepProfile`] becomes a set of complete (`"ph": "X"`) duration events
//! — one lane per part plus a controller lane — with counter tracks for
//! enablement and marshalled bytes.  Unsynchronized workers contribute one
//! aggregate busy span each from their [`WorkerProfile`].
//!
//! The emitted document is the JSON-object flavor of the trace-event
//! format: `{"traceEvents": [...]}`, timestamps in microseconds.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Duration;

use parking_lot::Mutex;
use ripple_kv::StoreMetrics;

use crate::profile::{StepProfile, WorkerProfile};
use crate::RunObserver;

/// Lane (Chrome `tid`) used for controller-scope events; part `p` maps to
/// lane `p + 1`.
const CONTROLLER_LANE: u32 = 0;

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// An observer that serializes step and worker profiles into Chrome
/// trace-event JSON.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use ripple_core::TraceRecorder;
///
/// let recorder = Arc::new(TraceRecorder::new());
/// // runner.observer(recorder.clone()); runner.profile(true); runner.launch(...)
/// let json = recorder.to_json();
/// assert!(json.starts_with("{\"traceEvents\":["));
/// ```
#[derive(Debug, Default)]
pub struct TraceRecorder {
    /// Pre-serialized JSON event objects, in arrival order.
    events: Mutex<Vec<String>>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of trace events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    fn push(&self, event: String) {
        self.events.lock().push(event);
    }

    /// A complete-duration event (`"ph": "X"`).
    fn push_span(&self, name: &str, lane: u32, ts: Duration, dur: Duration, args: &str) {
        self.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"ripple\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":0,\"tid\":{},\"args\":{{{}}}}}",
            escape(name),
            micros(ts),
            micros(dur),
            lane,
            args
        ));
    }

    /// A counter event (`"ph": "C"`), one numeric series per call.
    fn push_counter(&self, name: &str, ts: Duration, value: u64) {
        self.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"ripple\",\"ph\":\"C\",\"ts\":{:.3},\"pid\":0,\
             \"tid\":{CONTROLLER_LANE},\"args\":{{\"value\":{value}}}}}",
            escape(name),
            micros(ts),
        ));
    }

    /// Serializes everything recorded so far as a Chrome trace-event JSON
    /// document (`{"traceEvents": [...]}`), including thread-name metadata
    /// for the controller and part lanes.
    pub fn to_json(&self) -> String {
        let events = self.events.lock();
        // Name the lanes that actually appear.
        let mut lanes: Vec<u32> = Vec::new();
        for e in events.iter() {
            if let Some(rest) = e.split("\"tid\":").nth(1) {
                let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
                if let Ok(lane) = digits.parse::<u32>() {
                    if !lanes.contains(&lane) {
                        lanes.push(lane);
                    }
                }
            }
        }
        lanes.sort_unstable();
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for lane in lanes {
            let name = if lane == CONTROLLER_LANE {
                "controller".to_owned()
            } else {
                format!("part {}", lane - 1)
            };
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{lane},\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            );
        }
        for e in events.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(e);
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Writes [`TraceRecorder::to_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

impl RunObserver for TraceRecorder {
    fn on_step_profile(&self, profile: &StepProfile) {
        let step = profile.step;
        self.push_span(
            &format!("step {step}"),
            CONTROLLER_LANE,
            profile.start,
            profile.compute_wall + profile.inbox_wall,
            &format!(
                "\"step\":{step},\"enabled\":{},\"invocations\":{},\
                 \"messages_sent\":{},\"barrier_skew_us\":{:.3}",
                profile.enabled,
                profile.counters.invocations,
                profile.counters.messages_sent,
                micros(profile.barrier_skew),
            ),
        );
        for part in &profile.parts {
            self.push_span(
                &format!("compute s{step}"),
                part.part + 1,
                part.compute_start,
                part.compute,
                &format!("\"step\":{step},\"part\":{}", part.part),
            );
            self.push_span(
                &format!("deliver s{step}"),
                part.part + 1,
                part.inbox_start,
                part.inbox_build,
                &format!("\"step\":{step},\"part\":{}", part.part),
            );
        }
        let end = profile.start + profile.compute_wall + profile.inbox_wall;
        self.push_counter("enabled components", end, profile.enabled);
        self.push_counter("bytes marshalled", end, profile.store.bytes_marshalled);
        // Mobile-code tracks only appear when tasks actually moved.
        if profile.store.tasks_dispatched != 0 {
            self.push_counter("tasks dispatched", end, profile.store.tasks_dispatched);
        }
        if profile.store.enumerations != 0 {
            self.push_counter("enumerations", end, profile.store.enumerations);
        }
        // Network tracks only appear when a networked store is in play.
        if profile.store.rpcs != 0 {
            self.push_counter("rpcs", end, profile.store.rpcs);
            self.push_counter(
                "net bytes",
                end,
                profile.store.net_bytes_in + profile.store.net_bytes_out,
            );
        }
        // Failure tracks only appear once something actually went wrong,
        // so healthy traces stay uncluttered.
        if profile.store.retries != 0 {
            self.push_counter("store retries", end, profile.store.retries);
        }
        if profile.store.retry_bytes != 0 {
            self.push_counter("retry bytes", end, profile.store.retry_bytes);
        }
        if profile.store.reconnects != 0 {
            self.push_counter("reconnects", end, profile.store.reconnects);
        }
        if profile.store.failovers != 0 {
            self.push_counter("failovers", end, profile.store.failovers);
        }
    }

    fn on_worker_profile(&self, profile: &WorkerProfile) {
        // Unsynchronized workers report run-level aggregates, not
        // interleaved spans: one parent span per worker lane, anchored at
        // the worker's first activity on the run timeline, with the
        // busy/idle split as two aggregate sub-spans inside it.  (The
        // aggregates compress the real interleaving — busy first, idle
        // after — but the anchor and extents are faithful.)
        let args = format!(
            "\"part\":{},\"start_us\":{:.3},\"busy_us\":{:.3},\"idle_us\":{:.3},\
             \"utilization\":{:.4},\"batches\":{},\"envelopes\":{},\"max_batch\":{},\
             \"empty_polls\":{}",
            profile.part,
            micros(profile.start),
            micros(profile.busy),
            micros(profile.idle),
            profile.utilization(),
            profile.batches,
            profile.envelopes,
            profile.max_batch,
            profile.empty_polls,
        );
        let lane = profile.part + 1;
        self.push_span(
            "worker (aggregate)",
            lane,
            profile.start,
            profile.busy + profile.idle,
            &args,
        );
        self.push_span("busy (aggregate)", lane, profile.start, profile.busy, &args);
        self.push_span(
            "idle (aggregate)",
            lane,
            profile.start + profile.busy,
            profile.idle,
            &args,
        );
    }
}

/// Appends `,"<counter>":<value>` for every scalar store counter, in
/// declaration order.
fn write_store_counters(out: &mut String, store: &StoreMetrics) {
    for (name, value) in store.counters() {
        let _ = write!(out, ",\"{name}\":{value}");
    }
}

/// Serializes step profiles as a plain JSON array (one object per step),
/// for harnesses that want the raw numbers rather than a trace timeline.
pub fn step_profiles_json(profiles: &[StepProfile]) -> String {
    let mut out = String::from("[");
    for (i, p) in profiles.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"step\":{},\"start_us\":{:.3},\"compute_wall_us\":{:.3},\
             \"inbox_wall_us\":{:.3},\"barrier_skew_us\":{:.3},\"enabled\":{},\
             \"invocations\":{},\"messages_sent\":{},\"messages_combined\":{},\
             \"state_reads\":{},\"state_writes\":{},\"state_deletes\":{},\"creates\":{},\
             \"direct_outputs\":{},\"spill_batches\":{}",
            p.step,
            micros(p.start),
            micros(p.compute_wall),
            micros(p.inbox_wall),
            micros(p.barrier_skew),
            p.enabled,
            p.counters.invocations,
            p.counters.messages_sent,
            p.counters.messages_combined,
            p.counters.state_reads,
            p.counters.state_writes,
            p.counters.state_deletes,
            p.counters.creates,
            p.counters.direct_outputs,
            p.counters.spill_batches,
        );
        write_store_counters(&mut out, &p.store);
        let _ = write!(
            out,
            ",\"rpc_p50_us\":{},\"rpc_p99_us\":{},\"parts\":[",
            p.store.rpc_latency.quantile_upper_us(500_000),
            p.store.rpc_latency.quantile_upper_us(990_000),
        );
        for (j, part) in p.parts.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"part\":{},\"compute_us\":{:.3},\"inbox_us\":{:.3}",
                part.part,
                micros(part.compute),
                micros(part.inbox_build),
            );
            write_store_counters(&mut out, &part.store);
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push(']');
    out
}

/// Serializes worker profiles as a plain JSON array.
pub fn worker_profiles_json(profiles: &[WorkerProfile]) -> String {
    let mut out = String::from("[");
    for (i, w) in profiles.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"part\":{},\"start_us\":{:.3},\"busy_us\":{:.3},\"idle_us\":{:.3},\
             \"utilization\":{:.4},\
             \"batches\":{},\"envelopes\":{},\"max_batch\":{},\"empty_polls\":{}}}",
            w.part,
            micros(w.start),
            micros(w.busy),
            micros(w.idle),
            w.utilization(),
            w.batches,
            w.envelopes,
            w.max_batch,
            w.empty_polls,
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{PartStepProfile, StepCounters};
    use ripple_kv::{Counter, StoreCounters};

    /// A tiny structural validator: balanced braces/brackets outside
    /// strings, no trailing garbage — enough to catch malformed emission.
    pub(crate) fn json_is_balanced(s: &str) -> bool {
        let mut depth: i64 = 0;
        let mut in_str = false;
        let mut esc = false;
        for c in s.chars() {
            if in_str {
                if esc {
                    esc = false;
                } else if c == '\\' {
                    esc = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    depth -= 1;
                    if depth < 0 {
                        return false;
                    }
                }
                _ => {}
            }
        }
        depth == 0 && !in_str
    }

    fn sample_profile() -> StepProfile {
        StepProfile {
            step: 3,
            start: Duration::from_micros(100),
            compute_wall: Duration::from_micros(50),
            inbox_wall: Duration::from_micros(25),
            barrier_skew: Duration::from_micros(5),
            enabled: 7,
            parts: vec![PartStepProfile {
                part: 0,
                compute_start: Duration::from_micros(101),
                compute: Duration::from_micros(40),
                inbox_start: Duration::from_micros(151),
                inbox_build: Duration::from_micros(20),
                ..Default::default()
            }],
            counters: StepCounters {
                invocations: 9,
                ..Default::default()
            },
            store: Default::default(),
        }
    }

    #[test]
    fn recorder_emits_balanced_trace_json() {
        let r = TraceRecorder::new();
        r.on_step_profile(&sample_profile());
        r.on_worker_profile(&WorkerProfile {
            part: 1,
            busy: Duration::from_micros(10),
            ..Default::default()
        });
        let json = r.to_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json_is_balanced(&json), "unbalanced: {json}");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("thread_name"));
        assert!(json.contains("\"name\":\"controller\""));
        assert!(json.contains("\"name\":\"part 0\""));
    }

    #[test]
    fn worker_spans_anchor_at_first_activity() {
        let r = TraceRecorder::new();
        r.on_worker_profile(&WorkerProfile {
            part: 2,
            start: Duration::from_micros(500),
            busy: Duration::from_micros(40),
            idle: Duration::from_micros(60),
            ..Default::default()
        });
        let json = r.to_json();
        assert!(json_is_balanced(&json), "unbalanced: {json}");
        // The parent and busy spans anchor at the first-activity offset,
        // not t=0; the idle sub-span follows the busy one.
        assert!(json.contains("\"name\":\"worker (aggregate)\""));
        assert!(json.contains("\"name\":\"busy (aggregate)\""));
        assert!(json.contains("\"name\":\"idle (aggregate)\""));
        assert!(json.contains("\"ts\":500.000"));
        assert!(json.contains("\"ts\":540.000"));
        assert!(!json.contains("\"ts\":0.000"));
    }

    #[test]
    fn empty_recorder_is_still_a_valid_document() {
        let json = TraceRecorder::new().to_json();
        assert!(json_is_balanced(&json));
        assert!(TraceRecorder::new().is_empty());
    }

    #[test]
    fn profile_arrays_are_balanced() {
        let steps = step_profiles_json(&[sample_profile()]);
        assert!(json_is_balanced(&steps), "unbalanced: {steps}");
        assert!(steps.contains("\"step\":3"));
        let workers = worker_profiles_json(&[WorkerProfile::default()]);
        assert!(json_is_balanced(&workers));
        assert_eq!(worker_profiles_json(&[]), "[]");
    }

    #[test]
    fn every_store_counter_is_rendered_at_step_and_part_level() {
        // Counter i (declaration order) reads 100 + i for the step and
        // 200 + i for its one part.
        let filled = |base| {
            let counters = StoreCounters::new();
            for (n, counter) in (base..).zip(Counter::ALL) {
                counters.add(None, counter, n);
            }
            counters.metrics()
        };
        let (step_store, part_store) = (filled(100), filled(200));
        let mut profile = sample_profile();
        profile.store = step_store;
        profile.parts[0].store = part_store;
        let json = step_profiles_json(&[profile]);
        assert!(json_is_balanced(&json), "unbalanced: {json}");
        let (step, part) = json.split_once("\"parts\":[").expect("a parts array");
        // Step-level keys keep their names and their place: in declaration
        // order, after the engine counters and before the latency quantiles.
        let mut last = step.find("\"spill_batches\":").expect("engine counters");
        for ((name, value), (_, part_value)) in step_store.counters().zip(part_store.counters()) {
            let at = step
                .find(&format!("\"{name}\":{value},"))
                .unwrap_or_else(|| panic!("step-level {name} missing: {step}"));
            assert!(at > last, "{name} out of declaration order");
            last = at;
            assert!(
                part.contains(&format!("\"{name}\":{part_value}")),
                "part-level {name} missing: {part}"
            );
        }
        assert!(step.find("\"rpc_p50_us\":").expect("latency quantiles") > last);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
